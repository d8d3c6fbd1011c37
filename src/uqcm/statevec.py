"""Dense statevector and density-matrix arithmetic for small qubit registers.

Convention used throughout the package: qubit 0 is the MOST significant bit
of a basis index, so the ket string |0110...> read left to right is the
binary expansion of the index.  Practical cap is 20 qubits (dense storage).
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20
ASSERT_ATOL = 1e-10    # default tolerance for user-facing assertions
DRIFT_ATOL = 1e-12     # allowed internal normalization drift


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``n_qubits`` qubits (2**n complex amplitudes)."""

    amps: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        n = int(amps.size).bit_length() - 1
        if amps.ndim != 1 or amps.size != 2 ** n:
            raise ValueError(f"amplitude array length {amps.size} is not a power of two")
        if n < 1:
            raise ValueError("at least one qubit required")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the dense-representation cap of {MAX_QUBITS}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= ASSERT_ATOL:
            raise ValueError(f"state is not normalized: sum |amps|^2 = {norm2!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "n_qubits", n)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        """Computational basis state |index> on ``n_qubits`` qubits."""
        if not 0 <= index < 2 ** n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def single_qubit(cls, a: complex, b: complex) -> "StateVector":
        """One-qubit state a|0> + b|1> (must be normalized)."""
        return cls(np.array([a, b], dtype=complex))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(np.kron(self.amps, other.amps))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n_qubits == other.n_qubits and bool(np.array_equal(self.amps, other.amps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix on ``n_qubits`` qubits."""

    elements: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        el = np.asarray(self.elements, dtype=complex)
        n = int(el.shape[0]).bit_length() - 1
        if el.ndim != 2 or el.shape != (2 ** n, 2 ** n):
            raise ValueError(f"density matrix shape {el.shape} is not (2^n, 2^n)")
        if not np.max(np.abs(el - el.conj().T)) <= ASSERT_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(el))
        if not abs(tr - 1.0) <= ASSERT_ATOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        el = el.copy()
        el.flags.writeable = False
        object.__setattr__(self, "elements", el)
        object.__setattr__(self, "n_qubits", n)


def tensor_power(single: StateVector, k: int) -> StateVector:
    """k-fold tensor product of ``single`` with itself."""
    if k < 1:
        raise ValueError("tensor power requires k >= 1 (empty register unsupported)")
    amps = single.amps
    out = amps
    for _ in range(k - 1):
        out = np.kron(out, amps)
    return StateVector(out)


def _check_keep(keep: Iterable[int], n: int) -> list[int]:
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep set {keep}")
    for q in keep:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    return sorted(keep)


def partial_trace(rho_or_state: StateVector | DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (ascending qubit order preserved)."""
    n = rho_or_state.n_qubits
    kept = _check_keep(keep, n)
    traced = [q for q in range(n) if q not in kept]
    if isinstance(rho_or_state, StateVector):
        t = rho_or_state.amps.reshape([2] * n)
        rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    else:
        t = rho_or_state.elements.reshape([2] * (2 * n))
        for ax in reversed(traced):
            t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
        rho = t
    d = 2 ** len(kept)
    return DensityMatrix(rho.reshape(d, d))


def fidelity_against_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """Overlap <psi| rho |psi>, asserted real."""
    if rho.n_qubits != psi.n_qubits:
        raise ValueError(
            f"dimension mismatch: rho on {rho.n_qubits} qubits, psi on {psi.n_qubits}")
    val = complex(psi.amps.conj() @ rho.elements @ psi.amps)
    if abs(val.imag) > DRIFT_ATOL:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag!r}")
    return float(min(max(val.real, 0.0), 1.0 + ASSERT_ATOL))


def qubit_count_for(length: int) -> int:
    """Number of qubits for a dimension; errors if not a power of two."""
    n = int(length).bit_length() - 1
    if 2 ** n != length:
        raise ValueError(f"{length} is not a power of two")
    return n
