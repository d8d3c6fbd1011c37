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

import numpy as np

from .statevec import MAX_QUBITS, StateVector

AMP_EPS = 1e-11  # amplitudes below this are treated as exact zeros


@dataclass(frozen=True)
class CloneSpec:
    """The pair (N, M): clone N identical input qubits into M outputs."""

    n_in: int
    m_out: int

    def __post_init__(self) -> None:
        if not (type(self.n_in) is int and type(self.m_out) is int):
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


def alphas(spec: CloneSpec) -> tuple[float, ...]:
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
    if any(v <= 0 for v in vals):
        raise ValueError("all level coefficients must be positive")
    total = sum(v * v for v in vals)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"coefficients not normalized: sum of squares = {total!r}")
    return tuple(vals)


def _check_dense(spec: CloneSpec) -> None:
    if spec.total_qubits > MAX_QUBITS:
        raise ValueError(f"{spec} needs {spec.total_qubits} qubits, above the "
                         f"dense-representation cap of {MAX_QUBITS} (statevec.MAX_QUBITS)")


def _popcounts(n_bits: int) -> np.ndarray:
    """Popcount of every index 0 .. 2^n_bits - 1, built by doubling."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(n_bits):
        counts = np.concatenate((counts, counts + 1))
    return counts


def _level_amplitudes(n_bits: int, j: int, base: tuple[complex, complex],
                      flipped: tuple[complex, complex]) -> np.ndarray:
    """Amplitude per popcount k of the uniform superposition of the C(n, j)
    placements of ``flipped`` among ``base`` on n = ``n_bits`` qubits.

    A basis string with k ones gets C(k, i) C(n-k, j-i) placements that put i
    flipped factors on its ones, each worth
    base0^(n-k-j+i) base1^(k-i) flipped0^(j-i) flipped1^i.
    """
    (b0, b1), (f0, f1) = base, flipped
    amps = np.zeros(n_bits + 1, dtype=complex)
    for k in range(n_bits + 1):
        for i in range(max(0, j - (n_bits - k)), min(j, k) + 1):
            amps[k] += (math.comb(k, i) * math.comb(n_bits - k, j - i)
                        * b0 ** (n_bits - k - j + i) * b1 ** (k - i) * f0 ** (j - i) * f1 ** i)
    return amps / math.sqrt(math.comb(n_bits, j))


def _class_table(spec: CloneSpec, a: complex, b: complex, machine_complement: bool) -> np.ndarray:
    """Ideal output amplitude per (clone popcount k, machine popcount l).

    T[k, l] = sum_j alpha_j clone_j[k] machine_j[l]; every basis state of the
    ideal output carries the entry of its (k, l) class.
    """
    base, perp = (a, b), (b.conjugate(), -a.conjugate())
    conj, conj_perp = (a.conjugate(), b.conjugate()), (b, -a)
    n, m = spec.n_in, spec.m_out
    table = np.zeros((m + 1, m - n + 1), dtype=complex)
    for j, alpha in enumerate(alphas(spec)):
        clone = _level_amplitudes(m, j, base, perp)
        machine = _level_amplitudes(m - n, j, conj, conj_perp)
        table += alpha * np.outer(clone, machine)
    if machine_complement:
        table = table[:, ::-1]  # X on every machine qubit: l -> M - N - l
    return table


def _dense(spec: CloneSpec, table: np.ndarray) -> np.ndarray:
    """Scatter a class table onto the 2^(2M-N) basis states, clone bits first."""
    clone_pc = _popcounts(spec.m_out)
    machine_pc = _popcounts(spec.m_out - spec.n_in)
    return table[clone_pc[:, None], machine_pc].reshape(-1)


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

    The output is symmetric within each register, so its amplitude depends
    only on the clone and machine popcounts; it is computed on that
    (M+1) x (M-N+1) table and then written out densely.
    """
    _check_dense(spec)
    if psi.n_qubits != 1:
        raise ValueError("psi must be a single-qubit state")
    a, b = complex(psi.amps[0]), complex(psi.amps[1])
    return StateVector(_dense(spec, _class_table(spec, a, b, machine_complement)))


def weight_components(spec: CloneSpec, machine_complement: bool = False) -> list[np.ndarray]:
    """Decompose the cloner output by input excitation weight.

    Returns real arrays ``comp[0..N]`` with, for every input a|0> + b|1>,
    ``ideal_output == sum_w a^(N-w) b^w comp[w]``.  The endpoint components
    are the computational-basis outputs themselves; interior ones are solved
    from exact evaluations at interpolation nodes.  Both are computed on the
    popcount class table.  Entries below ``AMP_EPS`` are snapped to zero.
    """
    _check_dense(spec)
    n = spec.n_in

    def exact(a: float, b: float) -> np.ndarray:
        return _class_table(spec, complex(a), complex(b), machine_complement).real

    tables: list[np.ndarray | None] = [None] * (n + 1)
    tables[0] = exact(1.0, 0.0)
    tables[n] = exact(0.0, 1.0)
    interior = list(range(1, n))
    if interior:
        ts = [math.pi * (i + 1) / (2 * (len(interior) + 1)) for i in range(len(interior))]
        lhs = np.zeros((len(ts), len(interior)))
        rhs = np.zeros((len(ts), tables[0].size))
        for i, t in enumerate(ts):
            a, b = math.cos(t), math.sin(t)
            rhs[i] = (exact(a, b) - a ** n * tables[0] - b ** n * tables[n]).reshape(-1)
            for c, w in enumerate(interior):
                lhs[i, c] = a ** (n - w) * b ** w
        sol = np.linalg.solve(lhs, rhs)
        for c, w in enumerate(interior):
            tables[w] = sol[c].reshape(tables[0].shape)
    return [_dense(spec, np.where(np.abs(t) < AMP_EPS, 0.0, t)) for t in tables]


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

