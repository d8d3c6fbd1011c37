"""uqcm benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload synth-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``.  The
workload runs closed-loop, one pass after another, in one process and one
thread.  Human-readable lines come first.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer ones
of the traced passes plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 9
# kernel time after each op, as a share of that op's wall time; and before
# and after each set-up, in seconds
KERNEL_SHARE = 0.2
SETUP_KERNEL_S = 0.1
IMPORT_PROBE = "import time; t = time.perf_counter(); import uqcm; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_s.tail": "s",
    "peak_rss_mb": "MiB",
    "cnot_eq_prep": "count",
    "cnot_eq_clone": "count",
}
# printed with the end-to-end metrics but left out of the JSON, because each
# is 0 on some workload or on the current code
REPORTED = {"feasible_cells": "count", "fidelity_gap": "1", "fail_rate": "ratio"}

PER_LAYER = {
    "cloner_math.weight_components.calls": "count",
    "cloner_math.weight_components.self_s": "s",
    "cloner_math.ideal_output.calls": "count",
    "cloner_math.ideal_output.self_s": "s",
    "prep.BasisLayout.packed.self_s": "s",
    "prep.solve_angles.self_s": "s",
    "prep.emit_prep_circuit.self_s": "s",
    "prep.gates": "count",
    "perm.build_permutation.self_s": "s",
    "perm.schedule.self_s": "s",
    "perm.validate_plan.self_s": "s",
    "perm.compile_moves.self_s": "s",
    "perm.moves": "count",
    "perm.cycle_breaks": "count",
    "perm.schedule_errors": "count",
    "synth.synthesize_cloner.self_s": "s",
    "circuit.to_json.self_s": "s",
    "circuit.from_json.self_s": "s",
    "circuit.json_bytes": "bytes",
    "circuit.cnot_cost.self_s": "s",
    "circuit.apply.calls": "count",
    "circuit.apply.self_s": "s",
    "circuit.apply.amp_visits": "count",
    "circuit.apply.ns_per_amp_visit": "ns",
    "statevec.partial_trace.calls": "count",
    "statevec.partial_trace.self_s": "s",
    "statevec.fidelity_against_pure.self_s": "s",
    "statevec.StateVector.tensor.self_s": "s",
    "simulator.haar_random_qubit.self_s": "s",
    "simulator.verify.self_s": "s",
    "simulator.samples": "count",
    "ion_budget.feasibility_scan.self_s": "s",
    "bench.op.self_s": "s",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    def __init__(self, calibrate) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calibrate = calibrate
        self.begin_pass()

    def begin_pass(self) -> None:
        self.cals: list[float] = []   # kernel times of this pass
        self.busy = 0.0               # wall seconds of this pass's ops

    def op_runner(self, tracer):
        """``op(label, fn, *args)``: run one op, count it, return None if it failed.

        The calibration kernel runs right after each op, outside its span
        and its time, for a fifth of the op's wall time.
        """
        def op(label, fn, *args):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.op(label) if tracer else nullcontext():
                    return fn(*args)
            except Exception as exc:   # an op that raises counts as failed
                self.failed += 1
                self.errors.append(f"{label}: {exc!r}")
                return None
            finally:
                elapsed = time.perf_counter() - t0
                self.busy += elapsed
                self.cals += self.calibrate(KERNEL_SHARE * elapsed)
        return op


def tail(passes: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten passes beyond it.

    Below 21 passes that percentile would not exceed the median, so the
    slowest pass stands in for it.
    """
    ordered = sorted(passes)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"slowest of {n} passes"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} passes, 10 beyond it"


def import_seconds() -> float:
    """Time ``import uqcm`` in a fresh interpreter, as a command-line user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def environment() -> dict:
    import numpy   # loaded by now; importing it at the top would precede the thread limits
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, run passes for ``seconds``, return the result object and report lines.

    Every time metric is rescaled by the calibration kernel timed beside it
    (see ``calib``); the wall times are on the report lines.
    """
    import calib   # loads numpy, so not before main has set the thread limits

    setups: list[float] = []
    setup_scales: list[float] = []
    for _ in range(SETUP_ROUNDS):
        kernel = calib.run(SETUP_KERNEL_S)
        t_import = import_seconds()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(t_import + time.perf_counter() - t0)
        kernel += calib.run(SETUP_KERNEL_S)
        setup_scales.append(calib.REF_S / statistics.fmean(kernel))

    tally = Tally(calib.run)
    tracer = spans.Tracer() if trace else None
    walls: dict[int, float] = {}    # pass index -> wall seconds
    scales: dict[int, float] = {}   # pass index -> REF_S / mean kernel time
    summaries = []
    start = time.perf_counter()
    index = 0
    while True:
        on = trace and index % 2 == 1
        if on:
            tracer.pass_index = index
            tracer.install()
        tally.begin_pass()
        try:
            summaries.append(workload.run_pass(state, seed, index, tally.op_runner(tracer if on else None)))
        finally:
            if on:
                tracer.uninstall()
        walls[index] = tally.busy
        scales[index] = calib.REF_S / statistics.fmean(tally.cals)
        index += 1
        if time.perf_counter() - start + walls[index - 1] > seconds and (index > 1 or not trace):
            break

    plain_ix = [i for i in walls if not (trace and i % 2 == 1)]
    traced_ix = [i for i in walls if trace and i % 2 == 1]
    plain = [walls[i] for i in plain_ix]
    plain_scaled = [walls[i] * scales[i] for i in plain_ix]
    setup_scaled = [t * k for t, k in zip(setups, setup_scales)]
    first = summaries[0]
    lines = [f"# uqcm benchmark: workload {workload.name}, seed {seed}, "
             f"{seconds:g} s, trace {int(trace)}",
             f"# env {json.dumps(environment(), sort_keys=True)}"]
    lines += [f"# op failed: {e}" for e in tally.errors[:20]]
    lines.append(f"# set-up wall times s: {json.dumps([round(t, 4) for t in setups])}")
    lines.append(f"# set-up rescale factors: {json.dumps([round(k, 4) for k in setup_scales])}")
    lines.append(f"# pass wall times s: {json.dumps([round(t, 4) for t in plain])}")
    lines.append(f"# pass rescale factors: {json.dumps([round(scales[i], 4) for i in plain_ix])}")
    if trace:
        lines.append("# traced pass wall times s: "
                     f"{json.dumps([round(walls[i], 4) for i in traced_ix])}")

    if trace:
        metrics = layer_metrics(tracer, plain_scaled, [walls[i] * scales[i] for i in traced_ix],
                                scales)
        apply_share = metrics["circuit.apply.self_s"] / metrics["trace.pass_s"]
        notes = {"trace.pass_s": f"median of {len(traced_ix)} traced passes",
                 "trace.untraced_pass_s": f"median of {len(plain)} untraced passes",
                 "circuit.apply.self_s": f"{apply_share:.1%} of the traced pass"}
        units = PER_LAYER
        printed = {}
    else:
        tail_s, tail_note = tail(plain_scaled)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": statistics.median(plain_scaled),
            "pass_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cnot_eq_prep": first.cnot_eq_prep,
            "cnot_eq_clone": first.cnot_eq_clone,
        }
        notes = {"setup_s": f"median of {len(setups)} set-ups; wall median "
                            f"{statistics.median(setups):.6g} s",
                 "pass_s": f"median of {len(plain)} passes; wall median "
                           f"{statistics.median(plain):.6g} s",
                 "pass_s.tail": tail_note,
                 "fail_rate": f"{tally.failed} failed of {tally.attempted} attempted"}
        units = END_TO_END
        gaps = [s.fidelity_gap for s in summaries if s.fidelity_gap is not None]
        printed = {"feasible_cells": first.feasible_cells,
                   "fidelity_gap": max(gaps, default=None),
                   "fail_rate": tally.failed / tally.attempted}
    for name, unit in {**units, **(REPORTED if printed else {})}.items():
        value = printed[name] if name in printed else metrics[name]
        text = "-" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        note = "not measured by this workload" if value is None else notes.get(name, "")
        lines.append(f"{name:40s} {text:16s} {unit:6s} {note}".rstrip())

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def layer_metrics(tracer, plain: list[float], traced: list[float],
                  scales: dict[int, float]) -> dict[str, float]:
    """Median over traced passes of each per-pass layer figure, times rescaled."""
    rows = []
    for index, row in tracer.per_pass().items():
        rows.append({name: value * scales[index] if name.endswith("_s") else value
                     for name, value in row.items()})
    metrics = {name: statistics.median(row.get(name, 0.0) for row in rows)
               for name in PER_LAYER if not name.startswith("trace.") or name == "trace.spans"}
    visits = sum(row.get("circuit.apply.amp_visits", 0) for row in rows)
    apply_s = sum(row.get("circuit.apply.self_s", 0.0) for row in rows)
    metrics["circuit.apply.ns_per_amp_visit"] = 1e9 * apply_s / visits if visits else 0.0
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes") and float(metrics[name]).is_integer():
            metrics[name] = int(metrics[name])
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread: set before numpy loads, so tensordot stays on one core
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.uqcm.__file__).resolve().is_relative_to(SRC):
        print(f"uqcm was imported from {workloads.uqcm.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, lines = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
