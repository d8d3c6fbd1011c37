import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import SWEEP
from oracle import compile_moves_by_bit, gate_slots, schedule_by_rescan

from uqcm import (BasisLayout, CloneSpec, Gate, PermutationPlan, PermutationSpec, PlanError,
                  ScheduleError, StateVector, apply, basis_count, build_permutation,
                  cnot_cost, compile_moves, ideal_output, schedule, synthesize_cloner,
                  validate_plan, weight_components)
from uqcm import perm
from uqcm.statevec import MAX_QUBITS

SQ = math.sqrt

# The hand-made basis shuffle of the three-qubit 1->2 cloner, as a dict:
# |000>->|000>, |001>->|101>, |011>->|011>, |100>->|111>, |101>->|010>, |111>->|100>
ONE_TO_TWO_TABLE = {0b000: 0b000, 0b001: 0b101, 0b011: 0b011,
                    0b100: 0b111, 0b101: 0b010, 0b111: 0b100}
# ...and the reference move order realizing it (the last three route through
# the vacated |001> as a swap buffer).
ONE_TO_TWO_MOVES = ((0b101, 0b010), (0b001, 0b101), (0b111, 0b001),
                    (0b100, 0b111), (0b001, 0b100))


def one_to_two_layout():
    # amplitude placement with |10> left free, matching the shuffle above;
    # the hand-made network keeps the machine bits uncomplemented
    return BasisLayout.custom(CloneSpec(1, 2),
                              [(0b00, SQ(2 / 3)), (0b01, SQ(1 / 6)), (0b11, SQ(1 / 6))],
                              machine_complement=False)


class TestBuildPermutation:
    def test_one_to_two_reproduces_the_reference_table(self):
        perm = build_permutation(one_to_two_layout())
        assert perm.mapping == ONE_TO_TWO_TABLE

    def test_two_to_four_anchor_rows(self):
        spec = CloneSpec(2, 4)
        perm = build_permutation(BasisLayout.packed(spec))
        assert perm.mapping[0b000000] == 0b000011
        assert perm.mapping[0b110000] == 0b111100

    def test_identity_rows_survive_and_compile_to_nothing(self):
        perm = build_permutation(one_to_two_layout())
        assert perm.mapping[0b000] == 0b000
        assert perm.mapping[0b011] == 0b011
        circ = compile_moves(schedule(perm))
        # five moves of (2 pattern flips + bit flips) each; fixed rows add nothing
        assert sum(1 for g in circ.gates if g.kind == "mcx") == 10

    def test_placement_order_does_not_change_the_mapping(self):
        # the populated bases are read in basis order, however they are listed
        reversed_one_to_two = BasisLayout.custom(
            CloneSpec(1, 2), reversed(one_to_two_layout().placements), machine_complement=False)
        assert build_permutation(reversed_one_to_two).mapping == ONE_TO_TWO_TABLE
        packed = BasisLayout.packed(CloneSpec(2, 4))
        flipped = replace(packed, placements=packed.placements[::-1])
        assert flipped.placements != packed.placements
        assert build_permutation(flipped).mapping == build_permutation(packed).mapping

    def test_default_one_to_two_block_size(self):
        res = synthesize_cloner(CloneSpec(1, 2))
        assert len(res.permutation.mapping) == 6
        assert res.universal

    def test_flip_symmetry_between_complementary_patterns(self, sweep_results):
        # the complement pattern (same prep basis) lands on the complemented
        # destination, with the aux bits left as they are
        for (n, _), result in sweep_results.items():
            perm, layout = result.permutation, result.layout
            pattern_flip = ((1 << n) - 1) << layout.prep_qubits
            flip_mask = ((1 << perm.n_qubits) - 1) & ~((1 << layout.register.n_aux) - 1)
            for s, d in perm.mapping.items():
                assert perm.mapping[s ^ pattern_flip] == d ^ flip_mask, (result.spec, s)

    def test_two_to_three_mixed_pattern_routing(self):
        # pins the fallback for a pattern that cannot be value-matched: the
        # mixed source 0b01000's own basis already receives the all-zeros
        # source 0b00010, so it goes to the first free aux-clean basis, 0b00000
        res = synthesize_cloner(CloneSpec(2, 3))
        assert res.permutation.mapping == {
            0b00000: 0b00010, 0b00001: 0b00100, 0b00010: 0b01000, 0b00011: 0b10000,
            0b01000: 0b00000, 0b01001: 0b00110, 0b01010: 0b01010, 0b01011: 0b01100,
            0b10000: 0b11110, 0b10001: 0b11000, 0b10010: 0b10100, 0b10011: 0b10010,
            0b11000: 0b11100, 0b11001: 0b11010, 0b11010: 0b10110, 0b11011: 0b01110}
        assert not res.universal

    def test_mixed_patterns_flagged_when_not_value_matchable(self):
        res = synthesize_cloner(CloneSpec(2, 4))
        assert not res.universal  # amplitude multiset cannot split across blocks

    def test_mixed_weights_have_too_few_destinations_to_match(self):
        # value matching the C(N, w) patterns of weight w needs C(N, w)
        # destinations per populated basis, but comp_w lies on the
        # C(2M-N, M-w) bases whose clone and machine popcounts sum to M-N+w
        checked = 0
        for n in range(2, MAX_QUBITS):
            for m in range(n + 1, (MAX_QUBITS + n) // 2 + 1):
                for w in range(1, n):
                    assert (math.comb(2 * m - n, m - w)
                            < math.comb(n, w) * basis_count(CloneSpec(n, m))), (n, m, w)
                    checked += 1
        assert checked > 0

    def test_weight_components_lie_on_their_popcount_shell(self, sweep_results):
        for n, m in sweep_results:
            for complement in (False, True):
                comps = weight_components(CloneSpec(n, m), complement)
                for w, comp in enumerate(comps):
                    assert np.count_nonzero(comp) <= math.comb(2 * m - n, m - w), (n, m, w)

    def test_single_input_specs_route_universally(self):
        for m in (2, 3, 4):
            spec = CloneSpec(1, m)
            res = synthesize_cloner(spec)
            perm = res.permutation
            assert res.universal
            # one block per input pattern, each carrying every populated basis
            assert len(perm.mapping) == 2 * basis_count(spec)
            assert len(set(perm.mapping.values())) == len(perm.mapping)


class TestPermutationSpec:
    @pytest.mark.parametrize("mapping", [{1.5: 2}, {1: 2.0}, {True: 2}])
    def test_non_int_basis_rejected(self, mapping):
        # a float basis failed later inside compile_moves, and True compiled as 1
        with pytest.raises(ValueError, match="not an int"):
            PermutationSpec(3, mapping)

    @pytest.mark.parametrize("mapping, message", [
        ({0: 5, 2: 5}, "mapping is not injective"),
        ({0: 8}, "entry 0->8 out of range for 3 qubits"),
        ({8: 0}, "entry 8->0 out of range for 3 qubits"),
        ({-1: 0}, "entry -1->0 out of range for 3 qubits"),
    ])
    def test_bad_mapping_gives_its_message(self, mapping, message):
        with pytest.raises(ValueError) as err:
            PermutationSpec(3, mapping)
        assert str(err.value) == message


class TestSchedule:
    def test_identity_permutation_needs_no_moves(self):
        perm = PermutationSpec(3, {i: i for i in range(5)})
        assert schedule(perm).moves == ()

    def test_reference_move_order_passes_the_validator(self):
        perm = PermutationSpec(3, dict(ONE_TO_TWO_TABLE))
        validate_plan(perm, ONE_TO_TWO_MOVES)

    def test_scheduler_output_passes_the_validator(self):
        perm = PermutationSpec(3, dict(ONE_TO_TWO_TABLE))
        plan = schedule(perm)
        validate_plan(perm, plan)
        assert len(plan.moves) == 5  # one chain of two + one 2-cycle via buffer

    def test_validator_rejects_overwrites(self):
        perm = PermutationSpec(3, dict(ONE_TO_TWO_TABLE))
        with pytest.raises(PlanError, match="move 1->5 overwrites an occupied basis"):
            validate_plan(perm, ((0b001, 0b101),))  # |101> still occupied

    def test_validator_rejects_wrong_final_positions(self):
        perm = PermutationSpec(2, {0: 1})
        with pytest.raises(PlanError, match="amplitude from basis 0 ended at 3, wanted 1"):
            validate_plan(perm, ((0, 2), (2, 3)))

    def test_validator_rejects_reads_of_empty_bases(self):
        perm = PermutationSpec(3, dict(ONE_TO_TWO_TABLE))
        with pytest.raises(PlanError, match="move 2->6 reads an empty basis"):
            validate_plan(perm, ((0b010, 0b110),))  # nothing sits on |010>

    def test_validator_reports_the_first_misplaced_source_in_mapping_order(self):
        # no move at all: sources 3 and then 1 are both off target
        perm = PermutationSpec(2, {3: 0, 2: 2, 1: 3})
        with pytest.raises(PlanError, match="amplitude from basis 3 ended at 3, wanted 0"):
            validate_plan(perm, ())

    @pytest.mark.parametrize("seed", range(5))
    def test_validator_rejects_broken_scheduler_plans(self, seed):
        rng = np.random.default_rng(seed)
        perm = PermutationSpec(4, {int(s): int(d) for s, d in zip(
            rng.choice(16, size=12, replace=False), rng.choice(16, size=12, replace=False))})
        moves = schedule(perm).moves
        assert moves
        validate_plan(perm, moves)
        # the last move puts its amplitude on its destination; without it
        # that amplitude stays where it was
        with pytest.raises(PlanError, match="ended at"):
            validate_plan(perm, moves[:-1])
        # the first move run twice finds its source vacated the second time
        with pytest.raises(PlanError, match=f"move {moves[0][0]}->{moves[0][1]} reads an empty"):
            validate_plan(perm, moves[:1] + moves)

    def test_random_partial_permutations_replay(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n_items = int(rng.integers(1, 16))  # at most 15 of 16 bases occupied
            sources = rng.choice(16, size=n_items, replace=False)
            dests = rng.choice(16, size=n_items, replace=False)
            perm = PermutationSpec(4, {int(s): int(d) for s, d in zip(sources, dests)})
            plan = schedule(perm)
            validate_plan(perm, plan)

    def test_full_occupation_with_cycle_raises(self):
        perm = PermutationSpec(1, {0: 1, 1: 0})
        with pytest.raises(ScheduleError, match="every basis is occupied"):
            schedule(perm)


def schedule_outcome(scheduler, perm):
    """The moves a scheduler gives, or the ScheduleError message it raises."""
    try:
        return scheduler(perm).moves
    except ScheduleError as exc:
        return f"ScheduleError: {exc}"


class TestScheduleMatchesRescan:
    """``schedule`` keeps the order of the rescanning scheduler it replaced:
    rounds in increasing source order, a cycle broken by parking the
    smallest pending source in the smallest free basis."""

    def test_sweep_permutations(self, sweep_results):
        for nm in SWEEP:
            result = sweep_results[nm]
            want = schedule_by_rescan(result.permutation).moves
            assert schedule(result.permutation).moves == want == result.plan.moves, nm

    def test_four_to_eight(self):
        perm = build_permutation(BasisLayout.packed(CloneSpec(4, 8)))
        moves = schedule(perm).moves
        assert moves == schedule_by_rescan(perm).moves
        validate_plan(perm, moves)
        # it takes cycle breaks as well as chains
        assert len(moves) > sum(1 for s, d in perm.mapping.items() if s != d)

    def test_random_partial_injections(self):
        # every size from empty to full occupation, on 1 to 6 qubits
        rng = np.random.default_rng(2121)
        outcomes = {"moves": 0, "error": 0, "full": 0}
        for _ in range(2400):
            n = int(rng.integers(1, 7))
            dim = 2 ** n
            size = int(rng.integers(0, dim + 1))
            perm = PermutationSpec(n, {int(s): int(d) for s, d in zip(
                rng.choice(dim, size=size, replace=False),
                rng.choice(dim, size=size, replace=False))})
            got = schedule_outcome(schedule, perm)
            assert got == schedule_outcome(schedule_by_rescan, perm), perm
            outcomes["error" if isinstance(got, str) else "moves"] += 1
            outcomes["full"] += size == dim
            if not isinstance(got, str):
                validate_plan(perm, got)
        assert min(outcomes.values()) >= 100, outcomes

    def test_reversed_chain_takes_one_round_per_move(self):
        # source i waits on i + 1, so the rescan moves one source per round,
        # K rounds over up to K pending sources; the heap moves each once
        k = 2 ** 12
        perm = PermutationSpec(13, {i: i + 1 for i in range(k)})
        plan = schedule(perm)
        assert plan.moves == tuple((i, i + 1) for i in reversed(range(k)))
        validate_plan(perm, plan)


class TestCompileMoves:
    def test_single_move_structure(self):
        perm = PermutationSpec(3, {0b101: 0b010})
        circ = compile_moves(schedule(perm))
        kinds = [g.kind for g in circ.gates]
        assert kinds == ["mcx", "cnot", "cnot", "cnot", "mcx"]  # all three bits differ
        assert circ.gates[0].target == 3 and circ.gates[-1].target == 3
        out = apply(circ, StateVector.basis(4, 0b101 << 1))
        np.testing.assert_allclose(out.amps, StateVector.basis(4, 0b010 << 1).amps, atol=1e-14)

    def test_compiled_one_to_two_clones_both_basis_inputs(self):
        spec = CloneSpec(1, 2)
        layout = one_to_two_layout()
        perm = build_permutation(layout)
        circ = compile_moves(schedule(perm))
        prep = StateVector(layout.coefficients().astype(complex))
        for b in (0, 1):
            inp = StateVector.basis(1, b).tensor(prep).tensor(StateVector.basis(1, 0))
            out = apply(circ, inp)
            ideal = ideal_output(spec, StateVector.basis(1, b))
            np.testing.assert_allclose(out.amps[0::2], ideal.amps, atol=1e-10)
            np.testing.assert_allclose(out.amps[1::2], 0, atol=1e-12)

    def test_compiled_two_to_four_reaches_the_fifteen_base_state(self):
        spec = CloneSpec(2, 4)
        layout = BasisLayout.packed(spec)
        perm = build_permutation(layout)
        plan = schedule(perm)
        circ = compile_moves(plan)
        prep = StateVector(layout.coefficients().astype(complex))
        inp = StateVector.basis(2, 0).tensor(prep).tensor(StateVector.basis(1, 0))
        out = apply(circ, inp)
        ideal = ideal_output(spec, StateVector.basis(1, 0), machine_complement=True)
        np.testing.assert_allclose(out.amps[0::2], ideal.amps, atol=1e-10)

    def test_flag_disentangles_for_superposition_inputs(self):
        spec = CloneSpec(1, 3)
        layout = BasisLayout.packed(spec)
        perm = build_permutation(layout)
        circ = compile_moves(schedule(perm))
        prep = StateVector(layout.coefficients().astype(complex))
        rng = np.random.default_rng(9)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = StateVector(z / np.linalg.norm(z))
        out = apply(circ, psi.tensor(prep).tensor(StateVector.basis(1, 0)))
        flag_population = float(np.sum(np.abs(out.amps[1::2]) ** 2))
        assert flag_population < 1e-12

    def test_compiled_circuit_is_classical_reversible(self):
        perm = PermutationSpec(3, dict(ONE_TO_TWO_TABLE))
        circ = compile_moves(schedule(perm))
        for basis in range(16):
            out = apply(circ, StateVector.basis(4, basis))
            nonzero = np.abs(out.amps) > 1e-12
            assert int(np.sum(nonzero)) == 1
            assert abs(np.abs(out.amps[nonzero][0]) - 1) < 1e-12

    @pytest.mark.parametrize("move", [(1.5, 2), (1, 2.0), (True, 2)])
    def test_non_int_move_rejected(self, move):
        # a float basis failed with a bare TypeError, and True compiled as 1
        with pytest.raises(ValueError, match="not an int"):
            compile_moves(PermutationPlan(3, (move,)))

    @pytest.mark.parametrize("move", [(8, 1), (1, 8), (-1, 1)])
    def test_out_of_range_move_rejected(self, move):
        # a hand-built plan: its bases must lie in the 2^3 register
        with pytest.raises(ValueError, match="out of range"):
            compile_moves(PermutationPlan(3, (move,)))

    @pytest.mark.parametrize("n_qubits", [True, np.int64(3), 3.0, 1024])
    def test_register_without_a_flag_index_rejected(self, n_qubits):
        # the flag is qubit n_qubits, so it must be an int index up to
        # MAX_QUBIT_INDEX; the gates are built unchecked from it
        with pytest.raises(ValueError, match="no flag qubit index"):
            compile_moves(PermutationPlan(n_qubits, ((0, 1),)))

    def test_cost_bound_per_move(self):
        spec = CloneSpec(2, 4)
        perm = build_permutation(BasisLayout.packed(spec))
        plan = schedule(perm)
        circ = compile_moves(plan)
        assert cnot_cost(circ) <= 3 * len(plan.moves) * 6 ** 2

    def test_fixed_points_emit_nothing(self):
        perm = PermutationSpec(2, {1: 1, 2: 2})
        circ = compile_moves(schedule(perm))
        assert len(circ) == 0

    @pytest.mark.parametrize("width", range(1, 15))
    def test_tables_build_the_per_bit_gates(self, width):
        # random moves, fixed points and repeats among them, on odd and even
        # widths: each gate equals the one its bits spell out one at a time
        rng = np.random.default_rng(width)
        dim = 2 ** width
        moves = [(int(s), int(d)) for s, d in rng.integers(0, dim, size=(300, 2))]
        moves += [moves[0], (moves[1][0], moves[1][0]), (0, dim - 1), (dim - 1, 0)]
        plan = PermutationPlan(width, tuple(moves))
        circ = compile_moves(plan)
        want = compile_moves_by_bit(plan)
        assert circ.n_qubits == want.n_qubits == width + 1
        assert circ.gates == want.gates
        # and so do the masks, highest qubit and cost stored beside them
        assert list(map(gate_slots, circ.gates)) == list(map(gate_slots, want.gates))

    @pytest.mark.parametrize("nm", [(2, 4), (3, 6)])
    def test_builds_each_distinct_gate_once(self, nm, monkeypatch):
        # the flag CNOTs and each basis's flag flip are built once, however
        # many moves reach that basis; building per move fails here.  Every
        # gate of the stage is built by the Gate perm calls.
        spec = CloneSpec(*nm)
        plan = schedule(build_permutation(BasisLayout.packed(spec)))
        built = []

        def counted(*parts):
            gate = Gate(*parts)
            built.append(gate)
            return gate

        monkeypatch.setattr(perm, "Gate", counted)
        circ = compile_moves(plan)
        monkeypatch.undo()
        assert len(built) == len(set(circ.gates)) < len(circ.gates)
