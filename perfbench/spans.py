"""Span recorder for the traced run, attached to the library from outside.

``Tracer.install`` replaces each public function in ``TARGETS`` at the name
where its caller looks it up (``uqcm.synth.build_permutation``,
``uqcm.simulator.apply``, ...) with a wrapper that records a span, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is ``[op, parent, name, start, end]``; spans of one benchmark op share
the op id, and ``parent`` is the index of the enclosing span.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time its
children cover (calls are sequential, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


def _apply_visits(add, args, result):
    circ = args[0]
    add("circuit.apply.amp_visits", len(circ.gates) << circ.n_qubits)


def _schedule_moves(add, args, result):
    perm = args[0]
    add("perm.moves", len(result.moves))
    # every non-fixed source needs one final move; each cycle break adds one
    add("perm.cycle_breaks", len(result.moves) - sum(1 for s, d in perm.mapping.items() if s != d))


def _prep_gates(add, args, result):
    add("prep.gates", len(result.gates))


def _json_bytes(add, args, result):
    add("circuit.json_bytes", len(result))   # json.dumps output is ASCII


def _verify_samples(add, args, result):
    add("simulator.samples", result.n_samples)


# (module, attribute path at the call site, span name, counter hook,
#  counter bumped when the call raises)
TARGETS = (
    # called by the benchmark itself
    ("uqcm.synth", "synthesize_cloner", "synth.synthesize_cloner", None, None),
    ("uqcm.circuit", "to_json", "circuit.to_json", _json_bytes, None),
    ("uqcm.circuit", "from_json", "circuit.from_json", None, None),
    ("uqcm.circuit", "cnot_cost", "circuit.cnot_cost", None, None),
    ("uqcm.simulator", "verify", "simulator.verify", _verify_samples, None),
    ("uqcm.ion_budget", "feasibility_scan", "ion_budget.feasibility_scan", None, None),
    # called by synthesize_cloner and SynthesisResult.gate_counts; prep_for_spec
    # and BasisLayout.custom are not reported, they are wrapped so their time
    # does not count as synthesize_cloner's own
    ("uqcm.prep", "BasisLayout.packed", "prep.BasisLayout.packed", None, None),
    ("uqcm.prep", "BasisLayout.custom", "prep.BasisLayout.custom", None, None),
    ("uqcm.synth", "prep_for_spec", "prep.prep_for_spec", None, None),
    ("uqcm.synth", "solve_angles", "prep.solve_angles", None, None),
    ("uqcm.synth", "emit_prep_circuit", "prep.emit_prep_circuit", _prep_gates, None),
    ("uqcm.synth", "build_permutation", "perm.build_permutation", None, None),
    ("uqcm.synth", "schedule", "perm.schedule", _schedule_moves, "perm.schedule_errors"),
    ("uqcm.synth", "validate_plan", "perm.validate_plan", None, None),
    ("uqcm.synth", "compile_moves", "perm.compile_moves", None, None),
    ("uqcm.synth", "cnot_cost", "circuit.cnot_cost", None, None),
    # called by the prep and perm layers
    ("uqcm.prep", "weight_components", "cloner_math.weight_components", None, None),
    ("uqcm.perm", "weight_components", "cloner_math.weight_components", None, None),
    # called by verify
    ("uqcm.simulator", "apply", "circuit.apply", _apply_visits, None),
    ("uqcm.simulator", "ideal_output", "cloner_math.ideal_output", None, None),
    ("uqcm.simulator", "haar_random_qubit", "simulator.haar_random_qubit", None, None),
    ("uqcm.simulator", "partial_trace", "statevec.partial_trace", None, None),
    ("uqcm.simulator", "fidelity_against_pure", "statevec.fidelity_against_pure", None, None),
    ("uqcm.simulator", "cnot_cost", "circuit.cnot_cost", None, None),
    ("uqcm.statevec", "StateVector.tensor", "statevec.StateVector.tensor", None, None),
)

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op_pass: dict[int, int] = {}
        self.pass_index = 0
        self._op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._op, parent, name, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark op; every span inside shares its id."""
        self._op += 1
        self.op_pass[self._op] = self.pass_index
        span = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, fn, name, hook, error_counter):
        def add(counter, amount):
            self.counts[self._op, counter] += amount

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_counter:
                    add(error_counter, 1)
                raise
            finally:
                self._exit(span)
            if hook:
                hook(add, args, result)
            return result
        return traced

    def install(self) -> None:
        for module, path, name, hook, error_counter in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hook, error_counter))
            else:
                wrapped = self._wrap(raw, name, hook, error_counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per traced pass: ``<span>.calls``, ``<span>.self_s``, counters, ``trace.spans``."""
        child = [0.0] * len(self.spans)
        for op, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (op, _, name, start, end) in enumerate(self.spans):
            row = out[self.op_pass[op]]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += end - start - child[sid]
            row["trace.spans"] += 1
        for (op, counter), amount in self.counts.items():
            out[self.op_pass[op]][counter] += amount
        return out
