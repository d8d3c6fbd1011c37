"""Closed-form mathematics of the N-to-M universal quantum cloning machine.

Provides the coefficient ladder of the optimal symmetric cloning
transformation, the exact ideal output state it prescribes, the optimal
cloning fidelity, and the counting conditions that decide whether the
two-stage (preparation + basis-permutation) circuit construction fits in the
available Hilbert space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .statevec import MAX_QUBITS, StateVector

AMP_EPS = 1e-11  # amplitudes below this are treated as exact zeros


@dataclass(frozen=True)
class CloneSpec:
    """The pair (N, M): clone N identical input qubits into M outputs."""

    n_in: int
    m_out: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n_in, int) and isinstance(self.m_out, int)):
            raise TypeError("n_in and m_out must be integers")
        if self.n_in < 1 or self.m_out <= self.n_in:
            raise ValueError(f"need M > N >= 1, got N={self.n_in}, M={self.m_out}")

    @property
    def total_qubits(self) -> int:
        """Data qubits of the cloner: M clones plus M - N machine qubits."""
        return 2 * self.m_out - self.n_in

    @property
    def prep_qubits(self) -> int:
        return 2 * (self.m_out - self.n_in)

    @property
    def d_prep(self) -> int:
        """Dimension of the preparation register."""
        return 2 ** self.prep_qubits

    @property
    def n_levels(self) -> int:
        """Number of distinct coefficient levels j = 0 .. M - N."""
        return self.m_out - self.n_in + 1

    def __str__(self) -> str:
        return f"{self.n_in}->{self.m_out}"


@dataclass(frozen=True)
class CloneCoefficients:
    """Level coefficients of the cloning transformation, index j = 0 .. M-N."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.values):
            raise ValueError("all level coefficients must be positive")
        total = sum(v * v for v in self.values)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: sum of squares = {total!r}")

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def alphas(spec: CloneSpec) -> CloneCoefficients:
    """Coefficient of each orthogonal level in the ideal cloner output.

    alpha_j = sqrt((N+1)/(M+1)) * sqrt((M-N)! (M-j)! / ((M-N-j)! M!)).
    """
    n, m = spec.n_in, spec.m_out
    vals = []
    for j in range(spec.n_levels):
        vals.append(
            math.sqrt((n + 1) / (m + 1))
            * math.sqrt(
                math.factorial(m - n) * math.factorial(m - j)
                / (math.factorial(m - n - j) * math.factorial(m))
            )
        )
    return CloneCoefficients(tuple(vals))


def _symmetric_product_state(n_bits: int, j: int, base: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Uniform superposition of the C(n, j) placements of ``flipped`` among ``base``."""
    out = np.zeros(2 ** n_bits, dtype=complex)
    for ones in combinations(range(n_bits), j):
        term = np.ones(1, dtype=complex)
        for pos in range(n_bits):
            term = np.kron(term, flipped if pos in ones else base)
        out += term
    return out / math.sqrt(math.comb(n_bits, j))


def ideal_output(spec: CloneSpec, psi: StateVector,
                 machine_complement: bool = False) -> StateVector:
    """Exact ideal cloner output for one-qubit input psi = a|0> + b|1>.

    Register order: M clone qubits then M - N machine qubits.  Phase
    conventions: the flipped companion of psi is b*|0> - a*|1>, and the
    machine register carries the complex conjugate of psi; these choices make
    computational-basis inputs produce all-positive output amplitudes.

    ``machine_complement`` flips every machine qubit.  The machine register
    is only defined up to a fixed unitary, and this particular freedom is
    exercised by the standard worked examples: the 1->2 network leaves the
    bits as-is while the 2->4 construction complements them.
    """
    if spec.total_qubits > MAX_QUBITS:
        raise ValueError(f"{spec} needs {spec.total_qubits} qubits, above the "
                         f"dense-representation cap of {MAX_QUBITS} (statevec.MAX_QUBITS)")
    if psi.n_qubits != 1:
        raise ValueError("psi must be a single-qubit state")
    a, b = complex(psi.amps[0]), complex(psi.amps[1])
    base = np.array([a, b], dtype=complex)
    perp = np.array([np.conj(b), -np.conj(a)], dtype=complex)
    conj = np.array([np.conj(a), np.conj(b)], dtype=complex)
    conj_perp = np.array([b, -a], dtype=complex)
    coeff = alphas(spec)
    n, m = spec.n_in, spec.m_out
    out = np.zeros(2 ** spec.total_qubits, dtype=complex)
    for j in range(spec.n_levels):
        clone = _symmetric_product_state(m, j, base, perp)
        machine = _symmetric_product_state(m - n, j, conj, conj_perp)
        if machine_complement:
            machine = machine[::-1]  # X on every machine qubit
        out += coeff[j] * np.kron(clone, machine)
    return StateVector(out)


def weight_components(spec: CloneSpec, machine_complement: bool = False) -> list[np.ndarray]:
    """Decompose the cloner output by input excitation weight.

    Returns real arrays ``comp[0..N]`` with, for every input a|0> + b|1>,
    ``ideal_output == sum_w a^(N-w) b^w comp[w]``.  The endpoint components
    are the computational-basis outputs themselves; interior ones are solved
    from exact evaluations at interpolation nodes.  Entries below ``AMP_EPS``
    are snapped to zero.
    """
    n = spec.n_in
    dim = 2 ** spec.total_qubits

    def exact(psi: StateVector) -> np.ndarray:
        return ideal_output(spec, psi, machine_complement).amps.real.copy()

    comps: list[np.ndarray | None] = [None] * (n + 1)
    comps[0] = exact(StateVector.basis(1, 0))
    comps[n] = exact(StateVector.basis(1, 1))
    interior = list(range(1, n))
    if interior:
        ts = [math.pi * (i + 1) / (2 * (len(interior) + 1)) for i in range(len(interior))]
        lhs = np.zeros((len(ts), len(interior)))
        rhs = np.zeros((len(ts), dim))
        for i, t in enumerate(ts):
            a, b = math.cos(t), math.sin(t)
            rhs[i] = exact(StateVector.single_qubit(a, b)) - a ** n * comps[0] - b ** n * comps[n]
            for c, w in enumerate(interior):
                lhs[i, c] = a ** (n - w) * b ** w
        sol = np.linalg.solve(lhs, rhs)
        for c, w in enumerate(interior):
            comps[w] = sol[c]
    cleaned = []
    for comp in comps:
        comp = np.where(np.abs(comp) < AMP_EPS, 0.0, comp)
        cleaned.append(comp)
    return cleaned


def theoretical_fidelity(spec: CloneSpec) -> float:
    """Input-independent single-clone fidelity of the ideal transformation.

    Each level-j output has per-clone overlap (M - j) / M with the input, so
    F = sum_j alpha_j^2 (M - j) / M.
    """
    coeff = alphas(spec)
    m = spec.m_out
    return float(sum(coeff[j] ** 2 * (m - j) / m for j in range(spec.n_levels)))


def basis_count(spec: CloneSpec) -> int:
    """Number of computational bases carrying amplitude in the ideal output.

    Exact integer sum_k C(M, k) * C(M-N, k) over k = 0 .. M-N.
    """
    n, m = spec.n_in, spec.m_out
    return sum(math.comb(m, k) * math.comb(m - n, k) for k in range(m - n + 1))


@dataclass(frozen=True)
class FeasibilityCheck:
    """Outcome of the preparation-register counting condition."""

    feasible_without_aux: bool
    lhs: int
    rhs: int

    def __str__(self) -> str:
        rel = "<=" if self.feasible_without_aux else ">"
        return f"{self.lhs} {rel} {self.rhs}"


def feasibility(spec: CloneSpec) -> FeasibilityCheck:
    """Check whether the required bases fit in the preparation register.

    The construction works without extra qubits iff the number of populated
    bases does not exceed the preparation-register dimension 2^(2(M-N)).
    """
    lhs = basis_count(spec)
    rhs = spec.d_prep
    return FeasibilityCheck(feasible_without_aux=lhs <= rhs, lhs=lhs, rhs=rhs)

