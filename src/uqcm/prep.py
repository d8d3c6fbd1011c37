"""Preparation-stage synthesis: map |00...0> to an arbitrary real superposition.

The circuit is a binary amplitude-splitting tree: the level-L rotation acts
on qubit L-1 and is controlled on all earlier qubits selecting one branch,
so each basis prefix routes probability weight left (bit 0, cosine) or right
(bit 1, sine).  Levels above the leaves use nonnegative magnitudes; the leaf
level uses signed angles, which lets targets with negative coefficients
round-trip without extra sign-correction gates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .circuit import MAX_QUBIT_INDEX, Circuit, Gate, RegisterLayout, _reversal_tables
from .cloner_math import AMP_EPS, CloneSpec, basis_count, weight_components
from .statevec import qubit_count_for


@dataclass(frozen=True, eq=False)
class PrepTarget:
    """Real coefficient vector c over 2^n bases with sum c_k^2 = 1."""

    coeffs: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        n = qubit_count_for(c.size)
        total = float(np.sum(c * c))
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"target not normalized: sum of squares = {total!r}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n_qubits", n)


@dataclass(frozen=True)
class AngleTree:
    """Rotation angles per level and branch; level L has 2^(L-1) branches."""

    levels: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for lev, branch in enumerate(self.levels, start=1):
            if len(branch) != 2 ** (lev - 1):
                raise ValueError(f"level {lev} must have {2 ** (lev - 1)} angles")

    @property
    def n_qubits(self) -> int:
        return len(self.levels)


def solve_angles(target: PrepTarget) -> AngleTree:
    """Binary-split angles: tan(theta) = sqrt(right weight / left weight).

    The cosine carries the bit-0 subtree.  Branches with no weight get angle
    0.  The leaf level uses atan2 of the raw (signed) coefficient pair.
    """
    c = target.coeffs
    n = target.n_qubits
    weights = c * c
    levels: list[tuple[float, ...]] = []
    for lev in range(1, n + 1):
        branches = []
        if lev < n:
            sub = weights.reshape(2 ** lev, -1).sum(axis=1)
            for b in range(2 ** (lev - 1)):
                w0, w1 = sub[2 * b], sub[2 * b + 1]
                branches.append(0.0 if w0 + w1 == 0.0 else math.atan2(math.sqrt(w1), math.sqrt(w0)))
        else:
            for b in range(2 ** (lev - 1)):
                c0, c1 = c[2 * b], c[2 * b + 1]
                branches.append(0.0 if c0 == 0.0 and c1 == 0.0 else math.atan2(c1, c0))
        levels.append(tuple(branches))
    return AngleTree(tuple(levels))


def emit_prep_circuit(angles: AngleTree, offset: int = 0) -> Circuit:
    """Branch-controlled rotation circuit realizing the angle tree.

    2^n - 1 rotations in total; the level-L branch-b rotation is controlled
    on qubits 0..L-2 matching the binary expansion of b (negative controls
    for 0 bits).  Tree qubit q is register qubit ``offset + q`` of the
    smallest register that holds it, ``offset + n`` qubits.
    """
    if type(offset) is bool:   # True + q is a plain int, which Gate would take
        raise ValueError(f"offset must be an integer, got {offset!r}")
    n = angles.n_qubits
    # the bit of register qubit offset: 0 for an offset Gate refuses as a
    # target, which the level-1 gate then names
    unit = 1 << offset if isinstance(offset, int) and 0 <= offset <= MAX_QUBIT_INDEX else 0
    gates = []
    for q, level in enumerate(angles.levels):
        # a branch's positive mask is b bit-reversed, from two half tables
        high, low, half = _reversal_tables(q)
        controls, low_bits = (unit << q) - unit, (1 << half) - 1
        gates += [Gate("utheta", offset + q, controls, (high[b >> half] | low[b & low_bits]) * unit,
                       theta) for b, theta in enumerate(level)]
    return Circuit(offset + n, tuple(gates))


@dataclass(frozen=True)
class BasisLayout:
    """Placement of the required output amplitudes onto preparation bases.

    ``register`` is the cloner register the amplitudes are placed on; its
    ``n_aux`` auxiliary qubits extend the 2(M-N)-qubit preparation register
    (the enlarged register still ends disentangled at |0>).  ``placements``
    pairs each populated preparation basis with the amplitude it must carry.
    ``machine_complement`` selects which of the two equivalent machine-bit
    conventions the cloning stage targets; the default matches the worked
    2->4 construction, the other one the hand-made 1->2 network.
    """

    register: RegisterLayout
    placements: tuple[tuple[int, float], ...]
    machine_complement: bool = True

    def __post_init__(self) -> None:
        seen = set()
        for k, v in self.placements:
            if type(k) is not int:
                raise ValueError(f"basis {k!r} is not an int")
            if k in seen:
                raise ValueError(f"basis {k} placed twice")
            if not 0 <= k < 2 ** self.prep_qubits:
                raise ValueError(f"basis {k} out of range for {self.prep_qubits} prep qubits")
            if not v > 0:
                raise ValueError("placed amplitudes must be positive")
            seen.add(k)

    @property
    def prep_qubits(self) -> int:
        return self.register.spec.prep_qubits + self.register.n_aux

    def coefficients(self) -> np.ndarray:
        c = np.zeros(2 ** self.prep_qubits)
        for k, v in self.placements:
            c[k] = v
        return c

    @classmethod
    def packed(cls, spec: CloneSpec) -> "BasisLayout":
        """Amplitudes in descending order onto the smallest basis indices.

        The register takes the fewest auxiliary qubits that leave a strictly
        free basis, which the move scheduler needs as a buffer.  No move
        changes the number of occupied bases, so the scheduler always finds it.
        """
        values = _required_values(spec)
        n_aux = max(0, len(values).bit_length() - spec.prep_qubits)
        return cls(RegisterLayout(spec, n_aux), tuple(enumerate(values)))

    @classmethod
    def custom(cls, spec: CloneSpec, placements,
               machine_complement: bool = True) -> "BasisLayout":
        """Explicit placement on the 2(M-N) baseline qubits, no aux; the
        amplitude multiset must match the ideal one.  Bases go through
        ``operator.index``, which takes NumPy ints and refuses floats; a bool
        is kept as given, for ``__post_init__`` to refuse."""
        placements = tuple((k if type(k) is bool else operator.index(k), float(v))
                           for k, v in placements)
        got = sorted(v for _, v in placements)
        want = sorted(_required_values(spec))
        if len(got) != len(want) or not all(
            abs(g - w) <= 1e-9 for g, w in zip(got, want)
        ):
            raise ValueError("placement amplitudes do not match the required multiset")
        return cls(RegisterLayout(spec), placements, machine_complement)


def _required_values(spec: CloneSpec) -> list[float]:
    """Ideal output amplitudes for the all-zeros input, descending."""
    comp0 = weight_components(spec)[0]
    vals = sorted((float(v) for v in comp0 if v > AMP_EPS), reverse=True)
    assert len(vals) == basis_count(spec)
    return vals


def prep_for_spec(layout: BasisLayout) -> PrepTarget:
    """Preparation target carrying every amplitude of ``layout.register.spec``'s
    ideal output, on the bases ``layout`` places them."""
    return PrepTarget(layout.coefficients())
