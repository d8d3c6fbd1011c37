"""Cloning-stage synthesis: route preparation amplitudes to their final bases.

The cloning stage is a classical-reversible circuit.  For each input-register
pattern p the preparation state rides along unchanged, so the stage is
specified as a partial injection from source bases (pattern, prep basis) to
destination bases of the target output, scheduled as sequential amplitude
moves (a move may only land on a currently empty basis), and compiled into
flag-ancilla gadgets of three multi-qubit steps each.

Destinations are chosen in one pass over (pattern, complement) pairs; the
complement pattern always gets the bitwise complement of its partner's
assignment.  The all-zeros pattern goes first and takes destinations of equal
amplitude in the ideal output, fixed points first inside each equal-amplitude
group.  Every other pattern p < p ^ 1...1 follows in increasing p and takes its
own basis when free and aux-clean, else the next free basis, aux-clean first.
A permutation cannot merge the C(N, w) patterns of a mixed weight 0 < w < N,
so only N = 1 routes universally; the fallback keeps the circuit faithful on
computational inputs, and ``SynthesisResult.universal`` reports which.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import MAX_QUBIT_INDEX, Circuit, Gate, _bit_tables, _reversal_tables
from .cloner_math import AMP_EPS, weight_components
from .prep import BasisLayout

VALUE_TOL = 1e-8  # amplitudes closer than this are interchangeable


class SynthesisError(RuntimeError):
    """The requested permutation cannot be constructed consistently."""


class ScheduleError(RuntimeError):
    """No move order exists (every remaining cycle lacks a free buffer)."""


class PlanError(AssertionError):
    """A move plan violated the empty-destination discipline or the mapping."""


@dataclass(frozen=True)
class PermutationSpec:
    """Partial injection source basis -> destination basis on n_qubits."""

    n_qubits: int
    mapping: dict[int, int]

    def __post_init__(self) -> None:
        dim = 2 ** self.n_qubits
        dests = list(self.mapping.values())
        if len(set(dests)) != len(dests):
            raise ValueError("mapping is not injective")
        for s, d in self.mapping.items():
            if type(s) is not int or type(d) is not int:
                raise ValueError(f"entry {s!r}->{d!r} has a basis that is not an int")
            if not (0 <= s < dim and 0 <= d < dim):
                raise ValueError(f"entry {s}->{d} out of range for {self.n_qubits} qubits")


@dataclass(frozen=True)
class PermutationPlan:
    """Ordered amplitude moves realizing a PermutationSpec."""

    n_qubits: int
    moves: tuple[tuple[int, int], ...]


def _value_groups(values: list[float]) -> list[float]:
    """Cluster representatives of a positive value set, gap > VALUE_TOL."""
    reps: list[float] = []
    for v in sorted(values):
        if not reps or v - reps[-1] > VALUE_TOL:
            reps.append(v)
    return reps


def _group_key(reps: list[float], v: float) -> int | None:
    """Index of the value group matching ``v``, or None when none does."""
    i = bisect.bisect_left(reps, v - VALUE_TOL)
    if i < len(reps) and abs(reps[i] - v) <= VALUE_TOL * 2:
        return i
    return None


def build_permutation(layout: BasisLayout) -> PermutationSpec:
    """Destination assignment for every populated (input pattern, prep basis)
    of ``layout.register``.

    Sources are pattern * 2^P + k with P the (possibly enlarged) preparation
    register; destinations are target-output bases shifted left by the number
    of auxiliary qubits, which therefore end in |0>.
    """
    spec, n_aux = layout.register.spec, layout.register.n_aux
    n, p_qubits = spec.n_in, layout.prep_qubits
    n_data = n + p_qubits
    comp0 = weight_components(spec, layout.machine_complement)[0]
    placed = [(k, v) for k, v in sorted(layout.placements) if v > AMP_EPS]

    reps = _value_groups([float(v) for v in comp0 if v > AMP_EPS])
    # populated prep bases by amplitude group, in basis order
    by_group: dict[int | None, list[int]] = {}
    for k, v in placed:
        by_group.setdefault(_group_key(reps, v), []).append(k)

    # destinations of the all-zeros output keyed by amplitude group (None:
    # negative or unmatched), embedded with aux zeros
    pool: dict[int | None, list[int]] = {}
    for z in np.nonzero(np.abs(comp0) > AMP_EPS)[0]:
        v = float(comp0[z])
        gid = None if v < 0 else _group_key(reps, v)
        pool.setdefault(gid, []).append(int(z) << n_aux)
    if None in pool or ({g: len(zs) for g, zs in pool.items()}
                        != {g: len(ks) for g, ks in by_group.items()}):
        raise SynthesisError(
            f"{spec}: preparation amplitudes do not match the target output multiset")

    full = (1 << n) - 1
    aux_mask = (1 << n_aux) - 1
    flip_mask = ((1 << n_data) - 1) & ~aux_mask  # complements pattern + output bits, keeps aux
    pattern_flip = full << p_qubits  # a source's partner: complement pattern, same prep basis

    mapping: dict[int, int] = {}
    used: set[int] = set()  # closed under the flip: assign adds both halves

    def assign(s: int, pick: int) -> None:
        mapping[s] = pick
        mapping[s ^ pattern_flip] = pick ^ flip_mask
        used.update((pick, pick ^ flip_mask))

    # the all-zeros pattern (and through `assign` the all-ones one), by value
    for gid, ks in sorted(by_group.items()):
        group_pool = pool[gid]
        # fixed points first: sources already sitting on a free wanted basis
        fixed = set(group_pool).intersection(ks) - used
        for s in sorted(fixed):
            assign(s, s)
        open_pool = (z for z in group_pool if z not in used)
        for k in ks:
            if k in fixed:
                continue
            pick = next(open_pool, None)
            if pick is None:
                raise SynthesisError(f"{spec}: destination pool exhausted for pattern {'0' * n}")
            assign(k, pick)

    # Mixed weights 0 < w < N cannot be routed by value (the count is in
    # SynthesisResult.universal).  Free destinations go aux-clean-first, so
    # the aux register ends in |0> when the counting allows; `used` only
    # grows, so a skipped basis stays taken.
    free = (z for z in itertools.chain(range(0, 2 ** n_data, aux_mask + 1),
                                       (z for z in range(2 ** n_data) if z & aux_mask))
            if z not in used)
    for pattern in range(1, 1 << (n - 1)):  # p < p ^ full: the top bit is clear
        shift = pattern << p_qubits
        # the source's own basis when free and aux-clean, else the next free one
        for k, _ in placed:
            s = shift | k
            if (s & aux_mask) == 0 and s not in used:
                pick = s
            else:
                pick = next(free, None)
                if pick is None:
                    raise SynthesisError(
                        f"{spec}: no free destination left for pattern {pattern:0{n}b}")
            assign(s, pick)
    return PermutationSpec(n_qubits=n_data, mapping=mapping)


def schedule(perm: PermutationSpec) -> PermutationPlan:
    """Order the moves so every destination is empty when written.

    Moves go in rounds, each in increasing source order: a source moves once
    its destination is empty, so chains unwind from their open end.  The
    mapping is injective, so moving s readies at most the one source waiting
    on s: it moves in this round if it is larger than s, else in the next.
    A heap of the ready sources keeps this order in O(moves log moves),
    however many rounds there are.  When a round moves nothing, every pending
    source lies on a cycle; the smallest one is parked in the smallest free
    basis, and its cycle then unwinds one move at a time, backward, ending
    with the parked amplitude.  That frees the buffer again, so every cycle
    uses the same one.
    """
    pending = {s: d for s, d in perm.mapping.items() if s != d}
    # a pending source's destination holds either nothing or a pending source
    waiting = {d: s for s, d in pending.items() if d in pending}
    ready = [s for s, d in pending.items() if d not in pending]
    moves: list[tuple[int, int]] = []
    while ready:
        heapq.heapify(ready)
        later = []
        while ready:
            s = heapq.heappop(ready)
            moves.append((s, pending.pop(s)))
            w = waiting.pop(s, None)
            if w is None:
                continue
            if w > s:
                heapq.heappush(ready, w)
            else:
                later.append(w)
        ready = later
    if not pending:
        return PermutationPlan(n_qubits=perm.n_qubits, moves=tuple(moves))
    # no move changes how many bases are occupied
    if len(perm.mapping) == 2 ** perm.n_qubits:
        raise ScheduleError(
            "every basis is occupied, so no cycle can be broken; "
            "the mapping must leave at least one basis free")
    # a pending amplitude sits on its source, every other on its destination
    occupied = set(pending).union(d for s, d in perm.mapping.items() if s not in pending)
    buf = next(z for z in itertools.count() if z not in occupied)
    for s0 in sorted(pending):
        if s0 not in pending:   # on a cycle already unwound
            continue
        d0 = pending.pop(s0)
        moves.append((s0, buf))
        s, w = s0, waiting.pop(s0)
        while w != s0:   # back along the cycle to d0, whose waiter was s0
            del pending[w]
            moves.append((w, s))
            s, w = w, waiting.pop(w)
        moves.append((buf, d0))
    return PermutationPlan(n_qubits=perm.n_qubits, moves=tuple(moves))


def validate_plan(perm: PermutationSpec, moves: tuple[tuple[int, int], ...] | PermutationPlan) -> None:
    """Symbolic replay: raise PlanError unless the moves realize the mapping."""
    if isinstance(moves, PermutationPlan):
        moves = moves.moves
    holder = {s: s for s in perm.mapping}   # occupied basis -> token, named by its source
    for s, d in moves:
        if s not in holder:
            raise PlanError(f"move {s}->{d} reads an empty basis")
        if d in holder:
            raise PlanError(f"move {s}->{d} overwrites an occupied basis")
        holder[d] = holder.pop(s)
    for token, want in perm.mapping.items():
        if holder.get(want) != token:
            where = next(basis for basis, held in holder.items() if held == token)
            raise PlanError(f"amplitude from basis {token} ended at {where}, wanted {want}")


def compile_moves(plan: PermutationPlan) -> Circuit:
    """Three-step flag gadget per move on the plan's data qubits plus a flag.

    (i) flip the flag on the full polarity pattern of the source, (ii) flip
    every differing data bit controlled on the flag, (iii) flip the flag back
    on the full pattern of the destination.  Because every move lands on an
    empty basis, the flag returns to |0> exactly.
    """
    n_qubits = plan.n_qubits
    if type(n_qubits) is not int or not 0 <= n_qubits <= MAX_QUBIT_INDEX:
        raise ValueError(f"plan on {n_qubits!r} qubits leaves no flag qubit index")
    flag, dim = n_qubits, 1 << n_qubits
    # each gate is built once: a basis met again reuses its flag flip, and a
    # move's flag CNOTs and a flag flip's positive mask (z bit-reversed) each
    # join a high-bit and a low-bit table entry (qubit 0 the top bit of z)
    flips_high, flips_low, shift = _bit_tables(
        [((), (Gate("cnot", q, 1 << flag, 1 << flag),)) for q in range(n_qubits)])
    rev_high, rev_low, half = _reversal_tables(n_qubits)
    mask, rev_mask = (1 << shift) - 1, (1 << half) - 1
    patterns: dict[int, Gate] = {}

    def flag_flip(z: int) -> Gate:
        gate = patterns.get(z)
        if gate is None:
            gate = patterns[z] = Gate("mcx", flag, dim - 1,
                                      rev_high[z >> half] | rev_low[z & rev_mask])
        return gate

    gates: list[Gate] = []
    for s, d in plan.moves:
        if type(s) is not int or type(d) is not int:
            raise ValueError(f"move {s!r}->{d!r} has a basis that is not an int")
        if not (0 <= s < dim and 0 <= d < dim):
            raise ValueError(f"move {s}->{d} out of range for {n_qubits} qubits")
        if s == d:
            continue
        gates.append(flag_flip(s))
        differ = s ^ d
        gates += flips_high[differ >> shift]
        gates += flips_low[differ & mask]
        gates.append(flag_flip(d))
    return Circuit(n_qubits + 1, tuple(gates))
