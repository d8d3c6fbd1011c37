"""Closed-form mathematics of the N-to-M universal quantum cloning machine.

Provides the coefficient ladder of the optimal symmetric cloning
transformation, the closed-form (Buzek-Hillery / Gisin-Massar) weight
components of the ideal output and the exact output state built from them,
the optimal cloning fidelity, and the counting conditions that decide whether
the two-stage (preparation + basis-permutation) circuit construction fits in
the available Hilbert space.
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


def _weight_tables(spec: CloneSpec, machine_complement: bool) -> list[np.ndarray]:
    """Class table comp_w[k, l] of each input weight w = 0 .. N.

    The cloner maps the weight-w part of psi^(x)N to
    sum_t gamma_{w,t} |D^M_{w+t}>|D^{M-N}_t> over t = 0 .. M - N, with the
    Buzek-Hillery / Gisin-Massar coefficients (quant-ph/9703046,
    quant-ph/9705046)
    gamma_{w,t}^2 = alpha_t^2 C(w+t, w) C(M-w-t, N-w) C(N, w) / C(M-t, N);
    each basis state of a Dicke state D^n_k carries 1/sqrt(C(n, k)).  The
    ratio is exactly 1 at w = 0.  comp_N is comp_0 with both popcounts
    complemented, which is bit-exact where the formula at w = N is not.
    Not capped: the tables have (M+1) x (M-N+1) entries.
    """
    n, m = spec.n_in, spec.m_out
    alpha = alphas(spec)
    tables = []
    for w in range(n):
        table = np.zeros((m + 1, m - n + 1))
        for t in range(m - n + 1):
            k = w + t
            ratio = (math.comb(k, w) * math.comb(m - k, n - w) * math.comb(n, w)
                     / math.comb(m - t, n))
            # grouped as the Kronecker product over placements rounds it, so
            # comp_0, which the preparation angles are solved from, is bit-equal
            table[k, t] = alpha[t] * math.sqrt(ratio) * (
                (1 / math.sqrt(math.comb(m, k))) * (1 / math.sqrt(math.comb(m - n, t))))
        tables.append(table)
    tables.append(tables[0][::-1, ::-1])
    if machine_complement:
        tables = [table[:, ::-1] for table in tables]  # X on every machine qubit: l -> M - N - l
    return tables


def _dense(spec: CloneSpec, table: np.ndarray) -> np.ndarray:
    """Scatter a class table, or a stack of them on the leading axes, onto the
    2^(2M-N) basis states, clone bits first."""
    clone_pc = _popcounts(spec.m_out)
    machine_pc = _popcounts(spec.m_out - spec.n_in)
    return table[..., clone_pc[:, None], machine_pc].reshape(*table.shape[:-2], -1)


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

    The output is linear in psi^(x)N, so it is sum_w a^(N-w) b^w comp_w over
    the weight tables, each (M+1) x (M-N+1) by clone and machine popcount,
    and then written out densely.
    """
    _check_dense(spec)
    if psi.n_qubits != 1:
        raise ValueError("psi must be a single-qubit state")
    a, b = complex(psi.amps[0]), complex(psi.amps[1])
    n = spec.n_in
    tables = _weight_tables(spec, machine_complement)
    return StateVector(_dense(spec, sum(a ** (n - w) * b ** w * t for w, t in enumerate(tables))))


def weight_components(spec: CloneSpec, machine_complement: bool = False) -> list[np.ndarray]:
    """Decompose the cloner output by input excitation weight.

    Returns real arrays ``comp[0..N]`` with, for every input a|0> + b|1>,
    ``ideal_output == sum_w a^(N-w) b^w comp[w]``: the weight tables of
    ``_weight_tables`` written out densely.  comp[0] and comp[N] are the
    computational-basis outputs themselves.
    """
    _check_dense(spec)
    return [_dense(spec, t) for t in _weight_tables(spec, machine_complement)]


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

