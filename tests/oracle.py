"""Slow reference implementations that the library's fast paths are checked against.

``input_state`` builds a cloner's input one Kronecker factor at a time, and
``states_close`` compares two states up to global phase;
``apply_by_mask`` applies each gate through a 2^n boolean mask over basis
indices, one amplitude pair at a time.  ``verify_per_sample`` estimates the
statistics that ``uqcm.verify`` computes exactly, as a ``SampledReport`` over
the Haar samples of ``uqcm.haar_random_qubit``, by running the mask oracle
once per basis input and once per sample, with ``partial_trace`` and
``fidelity_against_pure`` per clone.
``gate_matrix`` is the 2x2 matrix that oracle applies per gate.
``circuit_text_by_qubit`` writes a circuit file one control qubit at a time.
``angle_tree_coefficients`` multiplies out a preparation angle tree one level
at a time.  ``ideal_output_by_kron`` builds the ideal cloner output from
Kronecker products over every placement of the flipped factors, and
``weight_components_by_kron`` solves the weight decomposition on those dense
vectors.  ``random_circuit`` makes the structureless circuits
they are compared on, ``flip_heavy_circuit`` the long flip runs that
``apply`` turns into one basis permutation each, and ``multiplexed_circuit``
the runs of rotations on one target and control set that it applies as one
grouped update each.  ``flip_sources_by_gate`` composes a flip run's basis
permutation one gate's index array at a time.  ``schedule_by_rescan`` orders
a permutation's moves by rescanning every pending move each round, and
``compile_moves_by_bit`` and ``emit_prep_circuit_by_bit`` build each gate's
controls one bit at a time.  ``gate_slots`` lists every slot of a gate, the
derived ones that gate equality leaves out included.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from uqcm import (AngleTree, Circuit, CloneSpec, Control, Gate, PermutationPlan,
                  PermutationSpec, RegisterLayout, ScheduleError, StateVector, alphas,
                  fidelity_against_pure, haar_random_qubit, ideal_output, partial_trace)
from uqcm.circuit import CIRCUIT_SCHEMA, ROTATION_KINDS
from uqcm.cloner_math import AMP_EPS
from uqcm.simulator import ANCILLA_TOL, PASS_TOL


def gate_slots(gate: Gate) -> tuple[str, list[type]]:
    """Every slot of ``gate``, the derived ones that ``Gate`` equality leaves
    out included, as their repr (which tells -0.0 from 0.0) and their types."""
    values = [getattr(gate, name) for name in Gate.__slots__]
    return repr(values), list(map(type, values))


def input_state(layout: RegisterLayout, psi: StateVector) -> StateVector:
    """psi on each of the N inputs, |0> on every other qubit."""
    reg = psi
    for _ in range(layout.spec.n_in - 1):
        reg = reg.tensor(psi)
    return reg.tensor(StateVector.basis(layout.n_qubits - layout.spec.n_in, 0))


def states_close(a: StateVector, b: StateVector, atol: float) -> bool:
    """Equality up to global phase, max-norm over amplitudes."""
    if a.n_qubits != b.n_qubits:
        return False
    ov = complex(np.vdot(b.amps, a.amps))
    phase = ov / abs(ov) if abs(ov) > 1e-300 else 1.0
    return bool(np.max(np.abs(a.amps - phase * b.amps)) <= atol)


def _symmetric_product_state(n_bits: int, j: int, base: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Uniform superposition of the C(n, j) placements of ``flipped`` among ``base``."""
    out = np.zeros(2 ** n_bits, dtype=complex)
    for ones in combinations(range(n_bits), j):
        term = np.ones(1, dtype=complex)
        for pos in range(n_bits):
            term = np.kron(term, flipped if pos in ones else base)
        out += term
    return out / math.sqrt(math.comb(n_bits, j))


def ideal_output_by_kron(spec: CloneSpec, psi: StateVector,
                         machine_complement: bool = False) -> np.ndarray:
    """The amplitudes ``uqcm.ideal_output`` gives, summed level by level over
    every Kronecker placement."""
    a, b = complex(psi.amps[0]), complex(psi.amps[1])
    base = np.array([a, b], dtype=complex)
    perp = np.array([np.conj(b), -np.conj(a)], dtype=complex)
    conj = np.array([np.conj(a), np.conj(b)], dtype=complex)
    conj_perp = np.array([b, -a], dtype=complex)
    n, m = spec.n_in, spec.m_out
    out = np.zeros(2 ** spec.total_qubits, dtype=complex)
    for j, alpha in enumerate(alphas(spec)):
        clone = _symmetric_product_state(m, j, base, perp)
        machine = _symmetric_product_state(m - n, j, conj, conj_perp)
        if machine_complement:
            machine = machine[::-1]  # X on every machine qubit
        out += alpha * np.kron(clone, machine)
    return out


def weight_components_by_kron(spec: CloneSpec, machine_complement: bool = False) -> list[np.ndarray]:
    """``uqcm.weight_components`` solved on the dense oracle vectors."""
    n = spec.n_in

    def exact(a: float, b: float) -> np.ndarray:
        return ideal_output_by_kron(spec, StateVector.single_qubit(a, b), machine_complement).real

    comps = [None] * (n + 1)
    comps[0], comps[n] = exact(1.0, 0.0), exact(0.0, 1.0)
    interior = list(range(1, n))
    if interior:
        ts = [math.pi * (i + 1) / (2 * (len(interior) + 1)) for i in range(len(interior))]
        lhs = np.array([[math.cos(t) ** (n - w) * math.sin(t) ** w for w in interior] for t in ts])
        rhs = np.array([exact(math.cos(t), math.sin(t)) - math.cos(t) ** n * comps[0]
                        - math.sin(t) ** n * comps[n] for t in ts])
        for w, sol in zip(interior, np.linalg.solve(lhs, rhs)):
            comps[w] = sol
    return [np.where(np.abs(c) < AMP_EPS, 0.0, c) for c in comps]


def gate_matrix(g: Gate) -> np.ndarray:
    """2x2 matrix a gate applies to its target where its controls hold."""
    if g.kind in ROTATION_KINDS:
        c, s = math.cos(g.theta), math.sin(g.theta)
        rows = [[c, -s], [s, c]] if g.kind == "roty" else [[c, s], [s, -c]]
        return np.array(rows, dtype=complex)
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def circuit_text_by_qubit(circuit: Circuit) -> str:
    """The ``uqcm-circuit/2`` text of ``circuit``, each gate line written one
    control qubit at a time: ``kind target c1 c2 ... [@theta]``, controls in
    ascending qubit order, a negative one as ``~q``."""
    def line(g: Gate) -> str:
        positive = g.positive_mask
        parts = [g.kind, str(g.target)] + [
            str(q) if positive >> q & 1 else f"~{q}"
            for q in range(g.control_mask.bit_length()) if g.control_mask >> q & 1]
        theta = g.theta
        if theta is not None:   # float.__repr__ for numpy floats, whose repr names the type
            parts.append("@" + (float.__repr__ if isinstance(theta, float) else int.__repr__)(theta))
        return " ".join(parts)

    head = json.dumps({"n_qubits": circuit.n_qubits, "schema": CIRCUIT_SCHEMA,
                       "roles": {name: list(qs) for name, qs in (circuit.roles or {}).items()}},
                      sort_keys=True)
    return "".join(f"{text}\n" for text in [head, *map(line, circuit.gates)])


def apply_by_mask(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply gates in order, selecting each gate's amplitude pairs by a mask."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"dimension mismatch: circuit on {circuit.n_qubits} qubits, "
            f"state on {state.n_qubits}")
    n = circuit.n_qubits
    amps = state.amps.copy()
    idx = np.arange(2 ** n)
    for g in circuit.gates:
        sel = np.ones(2 ** n, dtype=bool)
        for q, positive in g.controls:
            bit = (idx >> (n - 1 - q)) & 1
            sel &= bit == (1 if positive else 0)
        tmask = 1 << (n - 1 - g.target)
        i0 = idx[sel & ((idx & tmask) == 0)]
        i1 = i0 | tmask
        m = gate_matrix(g)
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = m[0, 0] * a0 + m[0, 1] * a1
        amps[i1] = m[1, 0] * a0 + m[1, 1] * a1
    return StateVector(amps)


def flip_sources_by_gate(flips, n: int) -> np.ndarray:
    """The index array ``src`` (the run moves basis state ``src[j]`` to j) of
    the flips run in order: each gate g gives ``src = src[pi_g]``, where
    ``pi_g[j]`` is j with g's target bit flipped if g's controls hold on j."""
    idx = np.arange(2 ** n)
    src = idx.copy()
    for g in flips:
        assert g.kind not in ROTATION_KINDS, g
        fires = np.ones(2 ** n, dtype=bool)
        for q, positive in g.controls:
            fires &= ((idx >> (n - 1 - q)) & 1) == int(positive)
        src = src[np.where(fires, idx ^ (1 << (n - 1 - g.target)), idx)]
    return src


@dataclass(frozen=True)
class SampledReport:
    """Fidelity statistics over Haar samples, and the state check on the
    computational-basis inputs only."""
    spec: CloneSpec
    max_state_error: float
    clone_fidelity_mean: float
    clone_fidelity_std: float
    clone_symmetry_error: float
    ancilla_purity_error: float

    @property
    def passed(self) -> bool:
        return (
            self.max_state_error < PASS_TOL
            and self.clone_fidelity_std < PASS_TOL
            and self.clone_symmetry_error < PASS_TOL
            and self.ancilla_purity_error < ANCILLA_TOL
        )


def verify_per_sample(spec: CloneSpec, circuit: Circuit, n_samples: int,
                      seed: int) -> SampledReport:
    """``uqcm.verify``'s checks estimated the slow way: one mask-oracle run
    per input, with ``partial_trace`` and ``fidelity_against_pure`` per clone.

    The basis-state error is taken on the inputs |0>^N and |1>^N; the
    fidelity mean and spread, the clone symmetry error and the ancilla
    residue over ``n_samples`` Haar inputs ``uqcm.haar_random_qubit(seed, i)``.
    """
    m = spec.m_out
    layout = RegisterLayout.of(spec, circuit)

    def run(psi: StateVector) -> StateVector:
        return apply_by_mask(circuit, input_state(layout, psi))

    def state_error(out: StateVector, ideal: np.ndarray) -> float:
        ext = layout.embed(ideal)
        anchor = int(np.argmax(np.abs(ext)))
        phase = out.amps[anchor] / ext[anchor]
        if abs(abs(phase) - 1) > 1e-6:
            phase = 1.0
        return float(np.max(np.abs(out.amps - phase * ext)))

    max_state_error = 0.0
    for b in (0, 1):
        out = run(StateVector.basis(1, b))
        err = min(
            state_error(out, ideal_output(spec, StateVector.basis(1, b), mc).amps)
            for mc in (False, True))
        max_state_error = max(max_state_error, err)

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

    return SampledReport(
        spec=spec,
        max_state_error=max_state_error,
        clone_fidelity_mean=float(np.mean(fidelities)),
        clone_fidelity_std=float(np.std(fidelities)),
        clone_symmetry_error=symmetry_error,
        ancilla_purity_error=ancilla_error,
    )


def angle_tree_coefficients(tree: AngleTree) -> np.ndarray:
    """Coefficient vector the tree prepares (signs included), branch by branch."""
    coeffs = np.array([1.0])
    for angles in tree.levels:
        out = np.empty(2 * coeffs.size)
        for b, t in enumerate(angles):
            out[2 * b] = coeffs[b] * math.cos(t)
            out[2 * b + 1] = coeffs[b] * math.sin(t)
        coeffs = out
    return coeffs


def random_circuit(n, n_gates, seed, roles=None):
    """Every gate kind, 0 to n-1 controls of mixed polarity where the kind allows."""
    rng = np.random.default_rng(seed)
    kinds = ["roty", "utheta", "x"] + (["cnot", "mcx"] if n > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        qubits = rng.permutation(n)
        k = {"x": 0, "cnot": 1}.get(kind, int(rng.integers(n)))
        controls = tuple(Control(int(q), bool(rng.integers(2))) for q in qubits[1:1 + k])
        theta = float(rng.uniform(-math.pi, math.pi)) if kind in ROTATION_KINDS else None
        gates.append(Gate.of(kind, int(qubits[0]), controls, theta))
    return Circuit(n, tuple(gates), roles)


def flip_heavy_circuit(n, n_gates, seed, rotation_share=0.05):
    """Long runs of flips broken by the odd rotation.  Each gate has 0 to n-1
    controls of mixed polarity; a flip with none is a bare x, and an x or mcx
    may carry any number."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        qubits = rng.permutation(n)
        k = int(rng.integers(n))
        if rng.random() < rotation_share:
            kind = ROTATION_KINDS[rng.integers(len(ROTATION_KINDS))]
        else:
            kinds = ["x", "mcx"] + (["cnot"] if k == 1 else [])
            kind = kinds[rng.integers(len(kinds))]
        controls = tuple(Control(int(q), bool(rng.integers(2))) for q in qubits[1:1 + k])
        theta = float(rng.uniform(-math.pi, math.pi)) if kind in ROTATION_KINDS else None
        gates.append(Gate.of(kind, int(qubits[0]), controls, theta))
    return Circuit(n, tuple(gates))


def multiplexed_circuit(n, seed, n_runs=8):
    """Runs of rotations on one target and one tuple of control qubits (n >= 3),
    with flips between the runs.  The controls sit before the target, after
    it, or on both sides, in a shuffled order.  Every other run covers all
    2^c polarity patterns, the rest a random subset; every third run repeats
    one pattern, which ends a group.  Kinds mix roty and utheta, and about a
    quarter of the angles are integers."""
    rng = np.random.default_rng(seed)
    gates = []
    for r in range(n_runs):
        target = int(rng.integers(1, n - 1))
        below, above = list(range(target)), list(range(target + 1, n))
        pool = (below, above, below + above)[r % 3]
        c = int(rng.integers(1 + (r % 3 == 2), min(len(pool), 4) + 1))
        qs = [int(q) for q in rng.choice(pool, size=c, replace=False)]
        if r % 3 == 2 and (min(qs) > target or max(qs) < target):
            qs[0] = int(rng.choice(below if min(qs) > target else above))   # both sides
        patterns = [int(p) for p in rng.permutation(2 ** c)]
        if r % 2:
            patterns = patterns[:int(rng.integers(1, 2 ** c + 1))]
        if r % 3 == 0:
            patterns.insert(int(rng.integers(1, len(patterns) + 1)),
                            patterns[int(rng.integers(len(patterns)))])
        for p in patterns:
            kind = ROTATION_KINDS[rng.integers(len(ROTATION_KINDS))]
            theta = (int(rng.integers(-3, 4)) if rng.random() < 0.25
                     else float(rng.uniform(-math.pi, math.pi)))
            controls = tuple(Control(q, bool(p >> (c - 1 - i) & 1)) for i, q in enumerate(qs))
            gates.append(Gate.of(kind, target, controls, theta))
        for _ in range(int(rng.integers(1, 3))):
            qubits = rng.permutation(n)
            k = int(rng.integers(n))
            controls = tuple(Control(int(q), bool(rng.integers(2))) for q in qubits[1:1 + k])
            gates.append(Gate.of("mcx" if k else "x", int(qubits[0]), controls))
    return Circuit(n, tuple(gates))


def schedule_by_rescan(perm: PermutationSpec) -> PermutationPlan:
    """The move order ``uqcm.schedule`` gives, found by rescanning every
    pending move in source order, round after round, until a round moves
    nothing; then the smallest pending source is parked in the smallest free
    basis.  O(rounds x pending)."""
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
                    "every basis is occupied, so no cycle can be broken; "
                    "the mapping must leave at least one basis free")
            s0 = min(pending)
            moves.append((s0, buf))
            occupied.discard(s0)
            occupied.add(buf)
            pending[buf] = pending.pop(s0)
    return PermutationPlan(n_qubits=perm.n_qubits, moves=tuple(moves))


def compile_moves_by_bit(plan: PermutationPlan) -> Circuit:
    """The circuit ``uqcm.compile_moves`` gives, each basis's full control
    pattern and each move's flag CNOTs read off its bits one at a time."""
    n_qubits = plan.n_qubits
    flag, dim = n_qubits, 1 << n_qubits
    polarities = [(Control(q, False), Control(q, True)) for q in range(n_qubits)]
    flips = [Gate.of("cnot", q, (Control(flag, True),)) for q in range(n_qubits)]
    width = f"0{n_qubits}b"   # qubit 0 is the most significant bit

    def flag_flip(z: int) -> Gate:
        return Gate.of("mcx", flag, tuple(
            pair[bit == "1"] for pair, bit in zip(polarities, format(z, width))))

    gates: list[Gate] = []
    for s, d in plan.moves:
        if not (0 <= s < dim and 0 <= d < dim):
            raise ValueError(f"move {s}->{d} out of range for {n_qubits} qubits")
        if s == d:
            continue
        gates.append(flag_flip(s))
        gates.extend(flips[q] for q, bit in enumerate(format(s ^ d, width)) if bit == "1")
        gates.append(flag_flip(d))
    return Circuit(n_qubits + 1, tuple(gates))


def emit_prep_circuit_by_bit(angles: AngleTree, offset: int = 0) -> Circuit:
    """The circuit ``uqcm.emit_prep_circuit`` gives, each branch's controls
    read off the bits of its index one at a time."""
    n = angles.n_qubits
    polarities = [(Control(offset + q, False), Control(offset + q, True)) for q in range(n)]
    gates = []
    for lev in range(1, n + 1):
        for b, theta in enumerate(angles.levels[lev - 1]):
            controls = tuple([polarities[q][(b >> (lev - 2 - q)) & 1] for q in range(lev - 1)])
            gates.append(Gate.of("utheta", offset + lev - 1, controls, theta))
    return Circuit(offset + n, tuple(gates))
