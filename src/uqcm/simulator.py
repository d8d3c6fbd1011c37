"""Verification harness: run cloning circuits against the exact ideal output.

A circuit is linear, and its input psi^(x)N (x) |0...0> with psi = a|0> + b|1>
is sum_w a^(N-w) b^w sqrt(C(N, w)) |D^N_w>|0...0> over the N+1 Dicke states
D^N_w of the input qubits.  So ``verify`` runs the circuit once, as one batch,
on those N+1 rows, and its outputs fix the output at every input.  A report
combines (a) exact state comparison on the computational-basis inputs and on
every Dicke row, (b) the Haar mean and spread of the clone fidelity, exact
from closed-form moments, (c) the largest difference between two clones'
reduced density matrices over all inputs, and (d) the largest residual
population outside |0> on the auxiliary and flag qubits over all inputs.
No number depends on a random sample.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuit import Circuit, RegisterLayout, apply, cnot_cost
from .cloner_math import (CloneSpec, _check_dense, _dense, _popcounts, _weight_tables,
                          theoretical_fidelity)
from .ion_budget import formula_gate_count
from .statevec import ASSERT_ATOL, MAX_QUBITS, StateVector
# unused here; perfbench/spans.py wraps them at these names in this module
from .cloner_math import ideal_output  # noqa: F401
from .statevec import fidelity_against_pure, partial_trace  # noqa: F401

PASS_TOL = 1e-9
ANCILLA_TOL = 1e-12
# the residue matrix over the aux and flag qubits may hold at most 2^_BUDGET_BITS entries
_BUDGET_BITS = 20


def haar_random_qubit(seed: int, index: int = 0) -> StateVector:
    """Haar-uniform pure qubit state: sample ``index`` of stream ``seed``.

    The sample is keyed on (seed, index), both taken mod 2^64, so it is
    reproducible without drawing its predecessors: its amplitudes are the
    first four standard normals of the Philox stream with that key, as two
    real and two imaginary parts, divided by their norm.  Both must be ints.
    """
    for name, value in (("seed", seed), ("index", index)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    z = gen.normal(size=2) + 1j * gen.normal(size=2)
    return StateVector(z / np.linalg.norm(z))


@dataclass(frozen=True)
class VerificationReport:
    spec: CloneSpec
    max_state_error: float
    superposition_state_error: float
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
            and self.superposition_state_error < PASS_TOL
            and self.clone_fidelity_std < PASS_TOL
            and self.clone_symmetry_error < PASS_TOL
            and self.ancilla_purity_error < ANCILLA_TOL
        )

    def to_dict(self) -> dict:
        """Every field, with ``spec`` flattened to ``n_in`` and ``m_out``."""
        fields = asdict(self)
        return {"schema": "uqcm-verification/3", **fields.pop("spec"), **fields,
                "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_table(self) -> str:
        rows = [
            ("clones", f"{self.spec.n_in} -> {self.spec.m_out}"),
            ("basis-state error (max)", f"{self.max_state_error:.3e}"),
            ("superposition-state error", f"{self.superposition_state_error:.3e}"),
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


def _phase_errors(clone: np.ndarray, ideal: np.ndarray) -> tuple[np.ndarray, float]:
    """Largest entry of |clone - phase * ideal| for each row under its own
    phase, and for all rows under one common phase.  A row's phase is the
    ratio at ideal's largest entry in it, or 1 where that is not a unit
    phase; the common one is that of the row holding the overall largest."""
    rows = np.arange(len(ideal))
    magnitude = abs(ideal)
    anchor = magnitude.argmax(axis=1)
    phases = clone[rows, anchor] / ideal[rows, anchor]
    phases[abs(abs(phases) - 1) > 1e-6] = 1.0
    common = phases[magnitude[rows, anchor].argmax()]
    return (abs(clone - phases[:, np.newaxis] * ideal).max(axis=1),
            float(abs(clone - common * ideal).max()))


def _sphere_moments(degree: int) -> np.ndarray:
    """E[|a|^(2(d-j)) |b|^(2j)] = (d-j)! j! / (d+1)! for j = 0 .. d, over
    Haar-random qubits a|0> + b|1>; every other monomial of degree d in
    (a, b) and d in their conjugates averages to 0."""
    f = math.factorial
    return np.array([f(degree - j) * f(j) / f(degree + 1) for j in range(degree + 1)])


def verify(spec: CloneSpec, circuit: Circuit, n_samples: int = 50,
           seed: int = 7, gate_counts: dict | None = None) -> VerificationReport:
    """Compare a circuit against the ideal transformation, exactly.

    The input psi^(x)N (x) |0...0> is sum_w c_w |D^N_w>|0...0> with
    c_w = sqrt(C(N, w)) a^(N-w) b^w, so the circuit runs once, as one batch,
    on the N+1 Dicke rows (amplitude 1/sqrt(C(N, w)) on every input pattern
    of weight w; input qubit 0 the most significant bit), and its output at
    psi is sum_w c_w out_w.  Every check holds for all inputs at once:

    - ``max_state_error``: rows D_0 and D_N (the inputs |0>^N and |1>^N),
      each against the ideal output under its own phase;
      ``superposition_state_error``: all N+1 rows against the ideal rows
      comp_w / sqrt(C(N, w)) under one common phase.  Each takes the better
      of the two machine-bit conventions.
    - Clone q's reduced state at psi is sum c_w conj(c_w') R^q_ww', with the
      2x2 partial traces R^q_ww' of |out_w><out_w'| read off one Gram
      product per clone.  The clone-averaged fidelity is then a polynomial in
      (a, b, conj(a), conj(b)); its Haar mean and standard deviation come
      from the closed-form moments, the variance as E[(F - m)^2] with m
      subtracted as m (|a|^2 + |b|^2)^(N+1) before squaring.
    - The symmetry error is the largest entry of R^q_ww' - R^q'_ww', and the
      ancilla residue the largest of T_ww' - delta_ww' |0><0| over the
      partial traces T_ww' on the aux and flag qubits.  Each is zero exactly
      when it is zero at every input.

    ``n_samples`` and ``seed`` are checked (an int each, at least one
    sample) and recorded in the report, but change no number.  A spec over
    the dense-representation cap, a register wider than that cap plus the
    flag, and a layout with more than 10 aux and flag qubits, whose (w, w')
    residue block would pass 2^20 entries, are refused before the circuit
    runs.
    """
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n_in, m = spec.n_in, spec.m_out
    # each before the batch of N+1 rows of 2^n amplitudes is built
    _check_dense(spec)
    if circuit.n_qubits > MAX_QUBITS + 1:
        raise ValueError(
            f"cannot verify a {circuit.n_qubits}-qubit register: above the "
            f"dense-representation cap of {MAX_QUBITS} qubits plus the flag")
    layout = RegisterLayout.of(spec, circuit)
    n, n_trailing = circuit.n_qubits, len(layout.trailing)
    if 2 * n_trailing > _BUDGET_BITS:
        raise ValueError(
            f"cannot check the residue on {n_trailing} aux and flag qubits: each (w, w') "
            f"residue block of 2^{n_trailing} x 2^{n_trailing} entries exceeds the "
            f"2^{_BUDGET_BITS}-entry budget (at most {_BUDGET_BITS // 2} such qubits)")
    rows = n_in + 1
    root_sizes = np.sqrt([math.comb(n_in, w) for w in range(rows)])
    weight = _popcounts(n_in)
    inputs = np.zeros((rows, 2 ** n), dtype=complex)
    inputs[weight, np.arange(2 ** n_in) << (n - n_in)] = 1.0 / root_sizes[weight]
    outs = _check_normalized(apply(circuit, inputs), "Dicke-row output")

    # (a) the state checks, under either machine-bit convention: the
    # complemented one flips every machine qubit, which reverses the machine
    # index.  stray: each row's largest amplitude off |0> on the trailing qubits
    core = outs.reshape(rows, 2 ** spec.total_qubits, 2 ** n_trailing)
    stray = np.max(np.abs(core[..., 1:]), axis=(1, 2), initial=0.0)
    plain = _dense(spec, np.array(_weight_tables(spec, False)) / root_sizes[:, None, None])
    complemented = plain.reshape(rows, 2 ** m, -1)[..., ::-1].reshape(rows, -1)
    (own, common), (own_c, common_c) = (_phase_errors(core[..., 0], ideal)
                                        for ideal in (plain, complemented))
    own = np.maximum(np.minimum(own, own_c), stray)
    max_state_error = float(max(own[0], own[n_in]))
    superposition_state_error = max(min(common, common_c), float(stray.max()))

    # (b)-(c) rhos[q][(w, x), (w', y)] = R^q_ww'[x, y]
    rhos = np.empty((m, 2 * rows, 2 * rows), dtype=complex)
    for q in range(m):
        split = outs.reshape(rows, 2 ** q, 2, -1).transpose(0, 2, 1, 3).reshape(2 * rows, -1)
        rhos[q] = split @ split.conj().T
    symmetry_error = float(np.max(np.abs(rhos[:, np.newaxis] - rhos[np.newaxis])))
    # F(psi) = sum conj(psi_x) c_w R_ww'[x, y] conj(c_w') psi_y over the clone
    # average R; coef[j, k] collects its monomial a^(N+1-j) b^j conj(a)^(N+1-k)
    # conj(b)^k, whose powers of b are w + y and of conj(b) are w' + x
    scaled = (np.mean(rhos, axis=0).reshape(rows, 2, rows, 2)
              * np.outer(root_sizes, root_sizes)[:, np.newaxis, :, np.newaxis])
    coef = np.zeros((rows + 1, rows + 1), dtype=complex)
    for x in (0, 1):
        for y in (0, 1):
            coef[y:y + rows, x:x + rows] += scaled[:, x, :, y]
    mean = float(np.dot(np.diagonal(coef), _sphere_moments(n_in + 1)).real)
    centred = coef - mean * np.diag([math.comb(n_in + 1, j) for j in range(rows + 1)])
    # E[(F - m)^2]: the product of monomials (j, k) and (j', k') averages to
    # the degree-2N+2 moment at j + j' when j + j' = k + k', and to 0 otherwise
    powers = np.arange(rows + 1)
    pair = powers[:, np.newaxis] + powers
    s, t = pair[:, np.newaxis, :, np.newaxis], pair[np.newaxis, :, np.newaxis, :]
    moments = _sphere_moments(2 * n_in + 2)
    variance = float(np.sum(np.multiply.outer(centred, centred)
                            * np.where(s == t, moments[s], 0.0)).real)

    # (d) T_ww'[x, y] over the trailing qubits, one 2^T x 2^T block at a time
    ancilla_error = 0.0
    trailing = outs.reshape(rows, -1, 2 ** n_trailing)
    for w in range(rows if n_trailing else 0):
        for v in range(w, rows):
            block = trailing[w].T @ trailing[v].conj()
            if v == w:
                block[0, 0] -= 1.0
            ancilla_error = max(ancilla_error, float(abs(block).max()))

    counts = dict(gate_counts or {})
    if "total" not in counts:
        counts["total"] = cnot_cost(circuit)
    counts["paper"] = formula_gate_count(spec, 1.0)
    return VerificationReport(
        spec=spec,
        max_state_error=max_state_error,
        superposition_state_error=superposition_state_error,
        clone_fidelity_mean=mean,
        clone_fidelity_std=math.sqrt(max(variance, 0.0)),
        clone_symmetry_error=symmetry_error,
        ancilla_purity_error=ancilla_error,
        gate_counts=counts,
        n_samples=n_samples,
        seed=seed,
    )
