"""Verification harness: run cloning circuits against the exact ideal output.

A report combines (a) exact state comparison on computational-basis inputs,
(b) clone fidelity statistics over Haar-random inputs, (c) pairwise equality
of the clone reduced density matrices, and (d) residual population outside
|0> on the auxiliary and flag qubits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, RegisterLayout, apply, cnot_cost
from .cloner_math import CloneSpec, gate_count_bound, ideal_output, theoretical_fidelity
from .statevec import StateVector, fidelity_against_pure, partial_trace

PASS_TOL = 1e-9
ANCILLA_TOL = 1e-12


def haar_random_qubit(seed: int, index: int = 0) -> StateVector:
    """Haar-uniform pure qubit state from a counter-based stream.

    Keyed on (seed, index), so sample ``index`` of a stream is reproducible
    without drawing its predecessors.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), index & (2**64 - 1)]))
    z = gen.normal(size=2) + 1j * gen.normal(size=2)
    z /= np.linalg.norm(z)
    return StateVector(z)


@dataclass(frozen=True)
class VerificationReport:
    spec: CloneSpec
    max_state_error: float
    clone_fidelity_mean: float
    clone_fidelity_std: float
    clone_symmetry_error: float
    ancilla_purity_error: float
    gate_counts: dict
    n_samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.max_state_error < PASS_TOL
            and self.clone_fidelity_std < PASS_TOL
            and self.clone_symmetry_error < PASS_TOL
            and self.ancilla_purity_error < PASS_TOL
        )

    def to_dict(self) -> dict:
        return {
            "schema": "uqcm-verification/1",
            "n_in": self.spec.n_in,
            "m_out": self.spec.m_out,
            "max_state_error": self.max_state_error,
            "clone_fidelity_mean": self.clone_fidelity_mean,
            "clone_fidelity_std": self.clone_fidelity_std,
            "clone_symmetry_error": self.clone_symmetry_error,
            "ancilla_purity_error": self.ancilla_purity_error,
            "gate_counts": self.gate_counts,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_table(self) -> str:
        rows = [
            ("clones", f"{self.spec.n_in} -> {self.spec.m_out}"),
            ("basis-state error (max)", f"{self.max_state_error:.3e}"),
            ("clone fidelity mean", f"{self.clone_fidelity_mean:.9f}"),
            ("clone fidelity theory", f"{theoretical_fidelity(self.spec):.9f}"),
            ("clone fidelity std", f"{self.clone_fidelity_std:.3e}"),
            ("clone symmetry error", f"{self.clone_symmetry_error:.3e}"),
            ("ancilla residue", f"{self.ancilla_purity_error:.3e}"),
            ("gate cost (measured)", str(self.gate_counts.get("total"))),
            ("gate cost (bound)", str(self.gate_counts.get("bound"))),
            ("verdict", "PASS" if self.passed else "FAIL"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def verify(spec: CloneSpec, circuit: Circuit, n_samples: int = 50,
           seed: int = 7, gate_counts: dict | None = None) -> VerificationReport:
    """Compare a circuit against the ideal transformation.

    Deterministic given ``seed``; the random inputs come from a counter-based
    stream so runs are reproducible regardless of sample count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    m = spec.m_out
    layout = RegisterLayout.of(spec, circuit)

    def run(psi: StateVector) -> StateVector:
        return apply(circuit, layout.input_state(psi))

    def state_error(out: StateVector, ideal: np.ndarray) -> float:
        ext = layout.embed(ideal)
        anchor = int(np.argmax(np.abs(ext)))
        phase = out.amps[anchor] / ext[anchor]
        if abs(abs(phase) - 1) > 1e-6:
            phase = 1.0
        return float(np.max(np.abs(out.amps - phase * ext)))

    # (a) exact match on computational-basis inputs, up to global phase, under
    # either machine-bit convention (the smaller error counts)
    max_state_error = 0.0
    for b in (0, 1):
        out = run(StateVector.basis(1, b))
        err = min(
            state_error(out, ideal_output(spec, StateVector.basis(1, b), mc).amps)
            for mc in (False, True))
        max_state_error = max(max_state_error, err)

    # (b)-(d) statistics over Haar-random inputs
    fidelities = []
    symmetry_error = 0.0
    ancilla_error = 0.0
    for i in range(n_samples):
        psi = haar_random_qubit(seed, i)
        out = run(psi)
        rhos = [partial_trace(out, {q}) for q in range(m)]
        fidelities.append(float(np.mean([fidelity_against_pure(r, psi) for r in rhos])))
        for a in range(m):
            for b in range(a + 1, m):
                symmetry_error = max(
                    symmetry_error,
                    float(np.max(np.abs(rhos[a].elements - rhos[b].elements))))
        if layout.trailing:
            anc = partial_trace(out, layout.trailing)
            delta = anc.elements.copy()
            delta[0, 0] -= 1.0
            ancilla_error = max(ancilla_error, float(np.max(np.abs(delta))))

    counts = dict(gate_counts) if gate_counts else {"total": cnot_cost(circuit)}
    counts.setdefault("total", cnot_cost(circuit))
    counts["bound"] = gate_count_bound(spec).total
    return VerificationReport(
        spec=spec,
        max_state_error=max_state_error,
        clone_fidelity_mean=float(np.mean(fidelities)),
        clone_fidelity_std=float(np.std(fidelities)),
        clone_symmetry_error=symmetry_error,
        ancilla_purity_error=ancilla_error,
        gate_counts=counts,
        n_samples=n_samples,
        seed=seed,
    )
