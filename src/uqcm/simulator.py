"""Verification harness: run cloning circuits against the exact ideal output.

A report combines (a) exact state comparison on computational-basis inputs,
(b) clone fidelity statistics over Haar-random inputs, (c) pairwise equality
of the clone reduced density matrices, and (d) residual population outside
|0> on the auxiliary and flag qubits.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .circuit import Circuit, RegisterLayout, apply, cnot_cost
from .cloner_math import CloneSpec, ideal_output, theoretical_fidelity
from .ion_budget import formula_gate_count
from .statevec import ASSERT_ATOL, DRIFT_ATOL, StateVector
# unused here; perfbench/spans.py wraps them at these names in this module
from .statevec import fidelity_against_pure, partial_trace  # noqa: F401

PASS_TOL = 1e-9
ANCILLA_TOL = 1e-12
# verify works on chunks of samples whose arrays hold about 2^_BUDGET_BITS entries
_BUDGET_BITS = 20


_KEY_MASK = 2**64 - 1


def _haar_rows(seed: int, start: int, stop: int) -> np.ndarray:
    """Haar-uniform pure qubit states for samples ``start`` to ``stop - 1`` of
    stream ``seed``, one per row of an ``(stop - start, 2)`` array.

    Sample i is keyed on (seed, i), both taken mod 2^64, so it is reproducible
    without drawing its predecessors: its amplitudes are the first four
    standard normals of the Philox stream with that key, as two real and two
    imaginary parts, divided by their norm.  One generator serves every row,
    re-keyed through its public state, which draws exactly what a fresh
    generator per key would.
    """
    bits = np.random.Philox(key=np.array([seed & _KEY_MASK, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    normals = np.empty((stop - start, 4))
    for i, row in zip(range(start, stop), normals):
        key[1] = i & _KEY_MASK
        bits.state = state
        gen.standard_normal(out=row)
    z = normals[:, :2] + 1j * normals[:, 2:]
    # per row the two strided dot products np.linalg.norm takes, so the norm
    # is bit-equal to it (a plain sum of squares differs in the last bit)
    re, im = z.real[:, np.newaxis], z.imag[:, np.newaxis]
    z /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    return z


def haar_random_qubit(seed: int, index: int = 0) -> StateVector:
    """Haar-uniform pure qubit state: sample ``index`` of stream ``seed``, the
    single-row case of ``_haar_rows``."""
    return StateVector(_haar_rows(seed, index, index + 1)[0])


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
            and self.ancilla_purity_error < ANCILLA_TOL
        )

    def to_dict(self) -> dict:
        """Every field, with ``spec`` flattened to ``n_in`` and ``m_out``."""
        fields = asdict(self)
        return {"schema": "uqcm-verification/2", **fields.pop("spec"), **fields,
                "passed": self.passed}

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
            ("gate cost (paper, eps=1)", f"{self.gate_counts['paper']:.6g}"),
            ("verdict", "PASS" if self.passed else "FAIL"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _check_normalized(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows`` of amplitudes, each of unit norm to ASSERT_ATOL."""
    drift = np.abs(np.sum(np.abs(rows) ** 2, axis=1) - 1.0)
    if not np.max(drift) <= ASSERT_ATOL:
        raise ValueError(f"{what} is not normalized: |norm^2 - 1| = {np.max(drift)!r}")
    return rows


def verify(spec: CloneSpec, circuit: Circuit, n_samples: int = 50,
           seed: int = 7, gate_counts: dict | None = None) -> VerificationReport:
    """Compare a circuit against the ideal transformation.

    A circuit is linear, and psi^(x)N (x) |0...0> = sum_p a^(N-|p|) b^|p| |p>|0...0>
    over the N-bit input patterns p (input qubit 0 the most significant bit).
    So the circuit runs once, as one batch, on the 2^N pattern inputs, and each
    sample's output is the matching combination of the pattern outputs: the
    cost is one batched gate sweep, plus per-sample sampling and marginals.

    Deterministic given ``seed``; the random inputs come from a counter-based
    stream (``seed`` taken mod 2^64) so runs are reproducible regardless of
    sample count.  A layout with more than 10 aux and flag qubits is refused
    before the circuit runs: one sample's residue matrix over them would pass
    the 2^20-entry budget a chunk of samples is sized to.
    """
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n_in, m = spec.n_in, spec.m_out
    layout = RegisterLayout.of(spec, circuit)
    n, n_trailing = circuit.n_qubits, len(layout.trailing)
    if 2 * n_trailing > _BUDGET_BITS:
        raise ValueError(
            f"cannot check the residue on {n_trailing} aux and flag qubits: one sample's "
            f"2^{n_trailing} x 2^{n_trailing} matrix exceeds the 2^{_BUDGET_BITS}-entry "
            f"budget (at most {_BUDGET_BITS // 2} such qubits)")
    patterns = np.arange(2 ** n_in)
    inputs = np.zeros((patterns.size, 2 ** n), dtype=complex)
    inputs[patterns, patterns << (n - n_in)] = 1.0
    outs = _check_normalized(apply(circuit, inputs), "pattern output")

    def state_error(out: np.ndarray, ideal: np.ndarray) -> float:
        ext = layout.embed(ideal)
        anchor = int(np.argmax(np.abs(ext)))
        phase = out[anchor] / ext[anchor]
        if abs(abs(phase) - 1) > 1e-6:
            phase = 1.0
        return float(np.max(np.abs(out - phase * ext)))

    # (a) exact match on computational-basis inputs (patterns 0...0 and
    # 1...1), up to global phase, under either machine-bit convention (the
    # smaller error counts).  The complemented convention flips every machine
    # qubit, which reverses the machine index of the same ideal output.
    max_state_error = 0.0
    for b, out in ((0, outs[0]), (1, outs[-1])):
        ideal = ideal_output(spec, StateVector.basis(1, b)).amps
        complemented = ideal.reshape(2 ** m, -1)[:, ::-1].reshape(-1)
        err = min(state_error(out, ideal), state_error(out, complemented))
        max_state_error = max(max_state_error, err)

    # (b)-(d) statistics over Haar-random inputs, for a chunk of samples at a
    # time so that the chunk's outputs and its residue matrices over the
    # trailing qubits each stay near 2^20 entries
    chunk = max(1, (1 << _BUDGET_BITS) >> max(n, 2 * n_trailing))
    fidelities = []
    symmetry_error = 0.0
    ancilla_error = 0.0
    for start in range(0, n_samples, chunk):
        psi = _check_normalized(
            _haar_rows(seed, start, min(start + chunk, n_samples)), "sample input")
        s = len(psi)
        coef = psi   # coef[i, p]: amplitude of pattern p in sample i's input
        for _ in range(n_in - 1):
            coef = (coef[:, :, np.newaxis] * psi[:, np.newaxis, :]).reshape(s, -1)
        out = _check_normalized(coef @ outs, "sample output")
        rhos = np.stack([
            np.einsum("iaxb,iayb->ixy", t, t.conj())
            for t in (out.reshape(s, 2 ** q, 2, -1) for q in range(m))], axis=1)
        fid = np.einsum("ix,iqxy,iy->iq", psi.conj(), rhos, psi)
        if np.max(np.abs(fid.imag)) > DRIFT_ATOL:
            raise ValueError(
                f"fidelity has non-negligible imaginary part {np.max(np.abs(fid.imag))!r}")
        fid = np.minimum(np.maximum(fid.real, 0.0), 1.0 + ASSERT_ATOL)
        fidelities.append(np.mean(fid, axis=1))
        symmetry_error = max(symmetry_error, float(np.max(np.abs(
            rhos[:, :, np.newaxis] - rhos[:, np.newaxis, :]))))
        if layout.trailing:
            t = out.reshape(s, -1, 2 ** n_trailing)
            delta = np.einsum("iax,iay->ixy", t, t.conj())
            delta[:, 0, 0] -= 1.0
            ancilla_error = max(ancilla_error, float(np.max(np.abs(delta))))
    fidelities = np.concatenate(fidelities)

    counts = dict(gate_counts or {})
    if "total" not in counts:
        counts["total"] = cnot_cost(circuit)
    counts["paper"] = formula_gate_count(spec, 1.0)
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
