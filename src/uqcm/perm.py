"""Cloning-stage synthesis: route preparation amplitudes to their final bases.

The cloning stage is a classical-reversible circuit.  For each input-register
pattern p the preparation state rides along unchanged, so the stage is
specified as a partial injection from source bases (pattern, prep basis) to
destination bases of the target output, scheduled as sequential amplitude
moves (a move may only land on a currently empty basis), and compiled into
flag-ancilla gadgets of three multi-qubit steps each.

Destination choice per input pattern:
  * all-zeros pattern: value-matched against the target output amplitudes,
    preferring fixed points inside equal-amplitude groups;
  * all-ones pattern: bitwise complement of the all-zeros assignment;
  * mixed patterns (N >= 2): value-matched the same way whenever the
    excitation-weight component of the ideal output has matching amplitude
    multiplicities, otherwise routed to free bases.  The matched case is
    exactly the condition for the finished circuit to clone arbitrary
    superposition inputs; the fallback keeps the circuit faithful on
    computational inputs and is reported via ``universal_routing``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Control, Gate
from .cloner_math import AMP_EPS, CloneSpec, weight_components
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
    universal_routing: bool = True

    def __post_init__(self) -> None:
        dim = 2 ** self.n_qubits
        dests = list(self.mapping.values())
        if len(set(dests)) != len(dests):
            raise ValueError("mapping is not injective")
        for s, d in self.mapping.items():
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


def _group_key(reps: list[float], v: float) -> int:
    import bisect
    i = bisect.bisect_left(reps, v - VALUE_TOL)
    if i < len(reps) and abs(reps[i] - v) <= VALUE_TOL * 2:
        return i
    raise SynthesisError(f"amplitude {v!r} matches no expected value group")


def build_permutation(spec: CloneSpec, layout: BasisLayout) -> PermutationSpec:
    """Destination assignment for every populated (input pattern, prep basis).

    Sources are pattern * 2^P + k with P the (possibly enlarged) preparation
    register; destinations are target-output bases shifted left by the number
    of auxiliary qubits, which therefore end in |0>.
    """
    n, p_qubits = spec.n_in, layout.prep_qubits
    n_aux = layout.n_aux
    n_data = n + p_qubits
    comps = weight_components(spec, layout.machine_complement)
    cvec = layout.coefficients()
    nz = [int(k) for k in np.nonzero(cvec > AMP_EPS)[0]]
    n_amp = len(nz)

    reps = _value_groups([float(v) for v in comps[0] if v > AMP_EPS])

    # per-weight destination pools keyed by amplitude group, embedded with aux zeros
    pools: list[dict[int, list[int]]] = []
    matchable: list[bool] = []
    c_counts: dict[int, int] = {}
    for k in nz:
        c_counts[_group_key(reps, float(cvec[k]))] = (
            c_counts.get(_group_key(reps, float(cvec[k])), 0) + 1)
    for w, comp in enumerate(comps):
        pool: dict[int, list[int]] = {}
        ok = True
        for z in np.nonzero(np.abs(comp) > AMP_EPS)[0]:
            v = float(comp[z])
            if v < 0:
                ok = False
                continue
            try:
                gid = _group_key(reps, v)
            except SynthesisError:
                ok = False
                continue
            pool.setdefault(gid, []).append(int(z) << n_aux)
        mult = math.comb(n, w)
        if ok:
            ok = all(len(pool.get(g, ())) == mult * cnt for g, cnt in c_counts.items()) and (
                sum(len(zs) for zs in pool.values()) == mult * n_amp)
        pools.append({g: sorted(zs) for g, zs in pool.items()})
        matchable.append(ok)
    if not matchable[0]:
        raise SynthesisError(
            f"{spec}: preparation amplitudes do not match the target output multiset")

    data_mask = (1 << n_data) - 1
    aux_mask = (1 << n_aux) - 1
    flip_mask = data_mask & ~aux_mask  # complements pattern + output bits, keeps aux

    mapping: dict[int, int] = {}
    used: set[int] = set()
    # destinations of matchable weight classes are reserved for matched routing
    reserved: set[int] = set()
    for w, pool in enumerate(pools):
        if matchable[w]:
            for zs in pool.values():
                reserved.update(zs)

    universal = all(matchable)

    def assign(s: int, sbar: int, pick: int) -> None:
        mapping[s] = pick
        mapping[sbar] = pick ^ flip_mask
        used.add(pick)
        used.add(pick ^ flip_mask)

    def available(z: int, avoid_reserved: bool = False) -> bool:
        if z in used or (z ^ flip_mask) in used:
            return False
        if avoid_reserved and (z in reserved or (z ^ flip_mask) in reserved):
            return False
        return True

    # free destinations scanned aux-clean-first so the auxiliary register ends
    # in |0> whenever the counting allows it
    free_order = sorted(range(2 ** n_data), key=lambda z: ((z & aux_mask) != 0, z))
    free_pos = 0
    for pattern in range(2 ** n):
        pbar = pattern ^ ((1 << n) - 1)
        if pbar < pattern:
            continue  # assigned together with its complement
        w = bin(pattern).count("1")
        shift = pattern << p_qubits
        shift_bar = pbar << p_qubits
        if matchable[w]:
            by_group: dict[int, list[int]] = {}
            for k in nz:
                by_group.setdefault(_group_key(reps, float(cvec[k])), []).append(k)
            for gid in sorted(by_group):
                group_pool = pools[w].get(gid, [])
                ks = by_group[gid]
                # fixed points first: sources already sitting on a wanted basis
                rest = []
                for k in ks:
                    s = shift | k
                    if s in group_pool and available(s):
                        assign(s, shift_bar | k, s)
                    else:
                        rest.append(k)
                for k in rest:
                    s = shift | k
                    pick = next((z for z in group_pool if available(z)), None)
                    if pick is None:
                        raise SynthesisError(
                            f"{spec}: destination pool exhausted for pattern {pattern:0{n}b}")
                    assign(s, shift_bar | k, pick)
        else:
            for k in nz:
                s = shift | k
                if (s & aux_mask) == 0 and available(s, avoid_reserved=True):
                    pick = s
                else:
                    while free_pos < len(free_order) and not available(
                            free_order[free_pos], avoid_reserved=True):
                        free_pos += 1
                    if free_pos == len(free_order):
                        raise SynthesisError(
                            f"{spec}: no free destination left for pattern {pattern:0{n}b}")
                    pick = free_order[free_pos]
                assign(s, shift_bar | k, pick)
    return PermutationSpec(n_qubits=n_data, mapping=mapping, universal_routing=universal)


def schedule(perm: PermutationSpec) -> PermutationPlan:
    """Order the moves so every destination is empty when written.

    Chains are unwound from their open end; cycles are broken by parking the
    smallest pending source in the smallest currently free basis.
    """
    pending = {s: d for s, d in perm.mapping.items() if s != d}
    occupied = set(perm.mapping)
    moves: list[tuple[int, int]] = []
    dim = 2 ** perm.n_qubits
    while pending:
        progressed = True
        while progressed:
            progressed = False
            for s in sorted(pending):
                d = pending[s]
                if d not in occupied:
                    moves.append((s, d))
                    occupied.discard(s)
                    occupied.add(d)
                    del pending[s]
                    progressed = True
        if pending:
            buf = next((z for z in range(dim) if z not in occupied), None)
            if buf is None:
                raise ScheduleError(
                    "no free basis available to break a cycle; "
                    "re-synthesize with an auxiliary preparation qubit")
            s0 = min(pending)
            moves.append((s0, buf))
            occupied.discard(s0)
            occupied.add(buf)
            pending[buf] = pending.pop(s0)
    return PermutationPlan(n_qubits=perm.n_qubits, moves=tuple(moves))


def validate_plan(perm: PermutationSpec, moves: tuple[tuple[int, int], ...] | PermutationPlan) -> None:
    """Symbolic replay: raise PlanError unless the moves realize the mapping."""
    if isinstance(moves, PermutationPlan):
        moves = moves.moves
    position = {s: s for s in perm.mapping}   # token (named by its source) -> basis
    holder = {s: s for s in perm.mapping}     # basis -> token
    occupied = set(perm.mapping)
    for s, d in moves:
        if s not in occupied:
            raise PlanError(f"move {s}->{d} reads an empty basis")
        if d in occupied:
            raise PlanError(f"move {s}->{d} overwrites an occupied basis")
        token = holder.pop(s)
        holder[d] = token
        position[token] = d
        occupied.discard(s)
        occupied.add(d)
    for token, where in position.items():
        if where != perm.mapping[token]:
            raise PlanError(
                f"amplitude from basis {token} ended at {where}, wanted {perm.mapping[token]}")


def compile_moves(plan: PermutationPlan, n_qubits: int) -> Circuit:
    """Three-step flag gadget per move on ``n_qubits`` data qubits plus a flag.

    (i) flip the flag on the full polarity pattern of the source, (ii) flip
    every differing data bit controlled on the flag, (iii) flip the flag back
    on the full pattern of the destination.  Because every move lands on an
    empty basis, the flag returns to |0> exactly.
    """
    if n_qubits != plan.n_qubits:
        raise ValueError(f"plan is over {plan.n_qubits} qubits, got {n_qubits}")
    flag = n_qubits
    gates: list[Gate] = []
    for s, d in plan.moves:
        if s == d:
            continue
        pattern_s = tuple(Control(q, bool((s >> (n_qubits - 1 - q)) & 1)) for q in range(n_qubits))
        pattern_d = tuple(Control(q, bool((d >> (n_qubits - 1 - q)) & 1)) for q in range(n_qubits))
        gates.append(Gate("mcx", flag, pattern_s))
        diff = s ^ d
        for q in range(n_qubits):
            if (diff >> (n_qubits - 1 - q)) & 1:
                gates.append(Gate("cnot", q, (Control(flag, True),)))
        gates.append(Gate("mcx", flag, pattern_d))
    return Circuit(n_qubits + 1, tuple(gates))

