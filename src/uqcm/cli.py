"""Command-line front end: synthesize, verify, count, budget, scan.

Exit codes: 0 success (and verification pass), 1 validation or input error,
2 verification failure.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .circuit import from_json, to_json
from .cloner_math import CloneSpec, basis_count, feasibility
from .ion_budget import (DEFAULT_FEASIBLE_THRESHOLD, SPECIES_ENV_VAR, TrapParams,
                         check_threshold, cloning_time, elementary_gate_time,
                         emission_probability, feasibility_scan, feasibility_threshold,
                         formula_gate_count, lhs_mmax, load_species,
                         min_emission_probability, render_scan_table, scan_to_json)
from .simulator import verify
from .synth import synthesize_cloner

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

DEFAULT_SCAN_SPECS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -5 and -0.5 as values but -1e6 and -inf as options;
        # read a negative number in exponent form, and -inf, -infinity and
        # -nan in any case, as a value too, so that the library's range check
        # is the one to reject it
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _artifact_path(args, register) -> Path:
    spec = register.spec
    name = f"cloner_N{spec.n_in}_M{spec.m_out}_aux{register.n_aux}_v{__version__}.uqcm"
    return Path(args.artifacts) / name


def _params_from(args) -> TrapParams:
    try:
        check_threshold(args.threshold)
    except ValueError as exc:
        _fail(f"--threshold: {exc}")
    return TrapParams(eta=args.eta, epsilon=args.epsilon, delta2=args.delta2,
                      gamma1=getattr(args, "gamma1", None))


def _print_params(params: TrapParams, threshold: float | None = None) -> None:
    extra = "" if threshold is None else f" feasible-below={threshold:g}"
    print(f"# params: eta={params.eta:g} epsilon={params.epsilon:g} "
          f"delta2={params.delta2:g}{extra}")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _species_selection(args):
    db = load_species(args.species_db)
    if args.species in (None, "all"):
        return list(db.values())
    if args.species not in db:
        _fail(f"unknown species {args.species!r}; available: {', '.join(sorted(db))}")
    return [db[args.species]]


def cmd_synth(args) -> int:
    spec = CloneSpec(args.n_in, args.m_out)
    check = feasibility(spec)
    result = synthesize_cloner(spec)
    counts = result.gate_counts()
    register = result.layout.register
    print(f"spec: N={spec.n_in} M={spec.m_out} "
          f"data_qubits={register.n_qubits - int(register.flag)} "
          f"aux={register.n_aux} flag={int(register.flag)}")
    # the suffix follows the register built: at equality no basis is left free
    print(f"feasible: {check}"
          + (" (aux variant used)" if register.n_aux > 0 else ""))
    print(f"universal routing: {'yes' if result.universal else 'no (exact on computational inputs)'}")
    print(f"gates measured: prep={counts['prep']} clone={counts['clone']} total={counts['total']}")
    print(f"gates paper:    {formula_gate_count(spec, 1.0):.6g}")
    path = Path(args.out) if args.out else _artifact_path(args, register)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(result.circuit))
    print(f"wrote: {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = CloneSpec(args.n_in, args.m_out)
    gate_counts = None
    if args.circuit:
        try:
            circuit = from_json(Path(args.circuit).read_text())
        except (OSError, ValueError) as exc:
            _fail(f"cannot load circuit {args.circuit!r}: {exc}")
    else:
        result = synthesize_cloner(spec)
        circuit = result.circuit
        gate_counts = result.gate_counts()
    report = verify(spec, circuit, n_samples=args.samples, seed=args.seed,
                    gate_counts=gate_counts)
    print(report.format_table())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
        print(f"wrote: {args.json_out}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_count(args) -> int:
    spec = CloneSpec(args.n_in, args.m_out)
    check = feasibility(spec)
    paper = formula_gate_count(spec, 1.0)   # before the first print, so bad input prints nothing
    print(f"spec: N={spec.n_in} M={spec.m_out} total_qubits={spec.total_qubits}")
    print(f"bases populated: {basis_count(spec)}")
    print(f"prep register fits: {check}")
    print(f"gates paper: {paper:.6g}")
    try:
        result = synthesize_cloner(spec)
    except ValueError as exc:
        print(f"synthesis unavailable: {exc}")
        return EXIT_OK
    counts = result.gate_counts()
    print(f"measured: prep={counts['prep']} clone={counts['clone']} total={counts['total']}")
    print(f"moves: {len(result.plan.moves)}  aux_qubits: {result.n_aux}  "
          f"universal: {'yes' if result.universal else 'no'}")
    return EXIT_OK


def cmd_budget(args) -> int:
    spec = CloneSpec(args.n_in, args.m_out)
    params = _params_from(args)
    species_list = _species_selection(args)
    # every figure is computed before the first print, so bad input prints nothing
    lines = [f"spec: N={spec.n_in} M={spec.m_out}  circuit factor (lhs): {lhs_mmax(spec):.6g}"]
    if args.omega1 is not None:
        tau = elementary_gate_time(spec, params, args.omega1)
        total = cloning_time(spec, params, args.omega1, args.gates)
        lines.append(f"elementary gate time: {tau:.6g} s   run time: {total:.6g} s")
    for sp in species_list:
        pmin = min_emission_probability(spec, sp, params, gate_count_override=args.gates)
        thr = feasibility_threshold(sp, params)
        verdict = "feasible" if pmin < args.threshold else "not feasible"
        lines.append(f"{sp.name}: p_min={pmin:.6g} ({verdict}); species threshold={thr:.6g}")
        if args.omega1 is not None and params.gamma1 is not None:
            probs = emission_probability(spec, sp, params, omega1_rabi=args.omega1,
                                         gate_count_override=args.gates)
            lines.append(f"    at omega1={args.omega1:g}: p1={probs.p1:.6g} "
                         f"p2={probs.p2:.6g} p_total={probs.p_total:.6g}")
    _print_params(params, args.threshold)
    print("\n".join(lines))
    return EXIT_OK


def cmd_scan(args) -> int:
    params = _params_from(args)
    species_list = _species_selection(args)
    if args.n_in is not None and args.m_out is not None:
        specs = [CloneSpec(args.n_in, args.m_out)]
    elif args.n_in is None and args.m_out is None:
        specs = [CloneSpec(n, m) for n, m in DEFAULT_SCAN_SPECS]
    else:
        _fail("give both -N and -M, or neither")
    etas = args.eta_list or [params.eta]
    measured = {}
    if args.gates is not None:
        if len(specs) != 1:
            _fail("--gates requires a single -N/-M spec")
        measured[(specs[0].n_in, specs[0].m_out)] = args.gates
    elif args.measured:
        for spec in specs:
            try:
                result = synthesize_cloner(spec)
            except ValueError:
                continue
            measured[(spec.n_in, spec.m_out)] = result.gate_counts()["total"]
    # the scan checks every input, so it runs before the first print
    rows = feasibility_scan(species_list, params, specs, etas=etas,
                            measured_counts=measured, threshold=args.threshold)
    _print_params(params, args.threshold)
    print("species thresholds:")
    for eta in etas:
        for sp in species_list:
            thr = feasibility_threshold(sp, replace(params, eta=eta))
            print(f"  {sp.name} (eta={eta:g}): {thr:.6g}")
    print(render_scan_table(rows))
    if args.json_out:
        Path(args.json_out).write_text(scan_to_json(rows))
        print(f"wrote: {args.json_out}")
    return EXIT_OK


def _add_spec_args(p, required=True):
    p.add_argument("-N", "--n-in", type=int, required=required, default=None,
                   help="number of identical input qubits")
    p.add_argument("-M", "--m-out", type=int, required=required, default=None,
                   help="number of output clones")


def _add_physics_args(p):
    p.add_argument("--eta", type=float, default=0.01, help="Lamb-Dicke parameter")
    p.add_argument("--epsilon", type=float, default=100.0, help="gate-count factor")
    p.add_argument("--delta2", type=float, default=1e13, help="detuning [1/s]")
    p.add_argument("--species", default="all", help="ion name or 'all'")
    p.add_argument("--species-db", default=None,
                   help=f"species JSON path (or ${SPECIES_ENV_VAR})")
    p.add_argument("--threshold", type=float, default=DEFAULT_FEASIBLE_THRESHOLD,
                   help="feasibility threshold on p_min")
    p.add_argument("--gates", type=int, default=None,
                   help="explicit gate count overriding the formula")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uqcm",
                     description="N-to-M quantum cloning circuits: synthesis, "
                                 "verification, and ion-trap emission budgets")
    parser.add_argument("--version", action="version", version=f"uqcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a cloning circuit")
    _add_spec_args(p)
    p.add_argument("--artifacts", default="uqcm-artifacts", help="artifact directory")
    p.add_argument("--out", default=None, help="explicit output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="verify a circuit against the ideal transformation")
    _add_spec_args(p)
    p.add_argument("--circuit", default=None,
                   help="uqcm-circuit/2 file to verify (default: synthesize one)")
    p.add_argument("--samples", type=int, default=50,
                   help="recorded in the report; the statistics are exact, so no input is sampled")
    p.add_argument("--seed", type=int, default=7,
                   help="recorded in the report; no random stream is drawn")
    p.add_argument("--json-out", default=None, help="write the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="gate counts and feasibility for a spec")
    _add_spec_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("budget", help="emission budget for one spec")
    _add_spec_args(p)
    _add_physics_args(p)
    p.add_argument("--omega1", type=float, default=None, help="Rabi frequency [1/s]")
    p.add_argument("--gamma1", type=float, default=None, help="level-1 decay rate [1/s]")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("scan", help="feasibility scan over species and specs")
    _add_spec_args(p, required=False)
    _add_physics_args(p)
    p.add_argument("--eta-list", type=float, nargs="*", default=None,
                   help="Lamb-Dicke values to scan")
    p.add_argument("--no-measured", dest="measured", action="store_false",
                   help="skip measured counts from synthesized circuits")
    p.add_argument("--json-out", default=None, help="write rows as JSON")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
