"""Workloads of the uqcm benchmark and the correctness gate of every op.

A workload is set up once (its circuits synthesized where it verifies them),
then run pass after pass.  A pass is a fixed list of ops; an op fails when it
raises, and every check below raises ``CheckFailed``.  The N >= 2
superposition shortfall (acceptance criterion 7) is not a failure: verify ops
return it as a fidelity gap instead.

The benchmark calls only the library's public API, always through the module
attribute (``synth.synthesize_cloner``, ``circuit.to_json``, ...), so the
traced run can wrap those names from outside.
"""
from __future__ import annotations

from dataclasses import dataclass

import uqcm
from uqcm import circuit, ion_budget, simulator, synth
from uqcm.cloner_math import CloneSpec

ETAS = (0.01, 1.0)

# (gates, moves, CNOT-eq) as measured when the benchmark was defined.  A change
# that shrinks circuits on purpose updates these through a benchmark change.
PINNED_COUNTS = {
    (1, 4): (427, 62, 8_608),
    (1, 5): (1_833, 229, 57_662),
    (1, 6): (7_797, 867, 350_010),
    (1, 7): (32_673, 3_195, 1_937_670),
    (3, 6): (4_393, 643, 138_480),
}
PINNED_FEASIBLE_CELLS = 5   # of the full synth-ladder scan, measured counts


class CheckFailed(AssertionError):
    """An op returned a result that contradicts a known answer."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassSummary:
    """What one pass measured, beyond its wall time."""

    cnot_eq_prep: int
    cnot_eq_clone: int
    feasible_cells: int | None = None   # synth-ladder only
    fidelity_gap: float | None = None   # verifying workloads only


def synth_op(spec: CloneSpec) -> dict[str, int]:
    """Synthesize, count, and round-trip through JSON as ``uqcm synth`` does."""
    result = synth.synthesize_cloner(spec)
    counts = result.gate_counts()
    cost = circuit.cnot_cost(result.circuit)
    _check(cost == counts["total"],
           f"{spec}: cnot_cost {cost} != gate_counts total {counts['total']}")
    text = circuit.to_json(result.circuit)
    _check(circuit.from_json(text) == result.circuit, f"{spec}: JSON round-trip changed the circuit")
    pinned = PINNED_COUNTS.get((spec.n_in, spec.m_out))
    got = (len(result.circuit), len(result.plan.moves), counts["total"])
    _check(pinned is None or got == pinned,
           f"{spec}: (gates, moves, CNOT-eq) {got} != pinned {pinned}")
    return counts


def scan_op(species: dict, counts: dict[CloneSpec, dict[str, int]],
            expect_cells: int | None) -> int:
    """Score every (spec, species, eta) cell on the measured counts."""
    specs = list(counts)
    rows = ion_budget.feasibility_scan(
        list(species.values()), ion_budget.TrapParams(), specs, etas=ETAS,
        measured_counts={(s.n_in, s.m_out): c["total"] for s, c in counts.items()})
    _check(len(rows) == len(specs) * len(species) * len(ETAS),
           f"scan returned {len(rows)} rows")
    cells = sum(1 for r in rows if r.feasible_measured)
    _check(expect_cells is None or cells == expect_cells,
           f"{cells} feasible cells, pinned {expect_cells}")
    return cells


def verify_op(spec: CloneSpec, circ, counts: dict | None, samples: int, seed: int) -> float:
    """Verify against the ideal map; return theory minus measured mean fidelity."""
    report = simulator.verify(spec, circ, n_samples=samples, seed=seed, gate_counts=counts)
    if spec.n_in == 1:
        _check(report.passed, f"{spec}: verify did not pass")
    else:
        _check(report.max_state_error < simulator.PASS_TOL,
               f"{spec}: basis-state error {report.max_state_error:.3e}")
    return uqcm.theoretical_fidelity(spec) - report.clone_fidelity_mean


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index``: every pass draws fresh Haar inputs."""
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class SynthLadder:
    """Synthesize each spec, take its counts, round-trip it, then score all cells."""

    name: str
    specs: tuple[tuple[int, int], ...]
    feasible_cells: int | None

    def setup(self) -> dict:
        return ion_budget.load_species()

    def run_pass(self, species: dict, seed: int, index: int, op) -> PassSummary:
        counts = {}
        for n, m in self.specs:
            spec = CloneSpec(n, m)
            got = op(f"synth {spec}", synth_op, spec)
            if got is not None:
                counts[spec] = got
        cells = op("scan", scan_op, species, counts, self.feasible_cells)
        return PassSummary(
            cnot_eq_prep=sum(c["prep"] for c in counts.values()),
            cnot_eq_clone=sum(c["clone"] for c in counts.values()),
            feasible_cells=cells)


@dataclass(frozen=True)
class VerifySet:
    """Verify circuits synthesized during set-up, ``samples`` Haar inputs each."""

    name: str
    specs: tuple[tuple[int, int], ...]
    samples: int
    reference: bool = False   # also verify the hand-made 1->2 network

    def setup(self) -> list:
        cases = []
        if self.reference:
            cases.append((CloneSpec(1, 2), synth.reference_one_to_two(), None))
        for n, m in self.specs:
            result = synth.synthesize_cloner(CloneSpec(n, m))
            cases.append((result.spec, result.circuit, result.gate_counts()))
        return cases

    def run_pass(self, cases: list, seed: int, index: int, op) -> PassSummary:
        gaps = []
        for spec, circ, counts in cases:
            label = f"verify {spec}" + ("" if counts else " reference")
            gap = op(label, verify_op, spec, circ, counts, self.samples, pass_seed(seed, index))
            if gap is not None:
                gaps.append(gap)
        synthesized = [counts for _, _, counts in cases if counts]
        return PassSummary(
            cnot_eq_prep=sum(c["prep"] for c in synthesized),
            cnot_eq_clone=sum(c["clone"] for c in synthesized),
            fidelity_gap=max(gaps, default=None))


# verify of 1->7 (about 72 s for 10 samples) and synthesis of 1->8 are left
# out on purpose; a later benchmark change adds them once verify is cheap.
WORKLOADS = {w.name: w for w in (
    SynthLadder("synth-ladder",
                ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                 (2, 3), (2, 4), (2, 5), (3, 6), (4, 8)),
                PINNED_FEASIBLE_CELLS),
    VerifySet("verify-wide", ((1, 5), (1, 6), (2, 5), (3, 6)), samples=2),
    VerifySet("verify-many", ((1, 2), (1, 3), (2, 3)), samples=100, reference=True),
)}
