import math

import numpy as np
import pytest
from oracle import angle_tree_coefficients, emit_prep_circuit_by_bit, gate_slots

from uqcm import (AngleTree, BasisLayout, CloneSpec, PrepTarget, RegisterLayout, apply,
                  basis_count, cnot_cost, emit_prep_circuit, prep_for_spec, solve_angles)
from uqcm.statevec import StateVector

SQ = math.sqrt


def run_prep(target: PrepTarget) -> np.ndarray:
    circ = emit_prep_circuit(solve_angles(target))
    out = apply(circ, StateVector.basis(target.n_qubits, 0))
    return out.amps.real


def eq_two_to_four_target() -> PrepTarget:
    coeffs = [SQ(3 / 5)] + [SQ(3 / 80)] * 8 + [SQ(1 / 60)] * 6 + [0.0]
    return PrepTarget(np.array(coeffs))


class TestSolveAngles:
    def test_uniform_two_qubit_target_gives_quarter_pi_everywhere(self):
        tree = solve_angles(PrepTarget(np.full(4, 0.5)))
        for level in tree.levels:
            for theta in level:
                assert theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_cloner_prep_target_round_trips(self):
        target = PrepTarget(np.array([SQ(2 / 3), SQ(1 / 6), 0.0, SQ(1 / 6)]))
        np.testing.assert_allclose(run_prep(target), target.coeffs, atol=1e-12)

    def test_two_to_four_angle_table(self):
        # frozen reference angles for the packed 2->4 preparation amplitudes
        tree = solve_angles(eq_two_to_four_target())
        assert tree.levels[0][0] == pytest.approx(math.atan(SQ(11 / 69)), abs=1e-14)
        np.testing.assert_allclose(
            tree.levels[1], [math.atan(SQ(4 / 19)), math.atan(SQ(4 / 7))], atol=1e-14)
        np.testing.assert_allclose(
            tree.levels[2],
            [math.atan(SQ(2 / 17)), math.pi / 4, math.atan(SQ(8 / 13)), math.atan(1 / SQ(2))],
            atol=1e-14)
        np.testing.assert_allclose(
            tree.levels[3],
            [math.atan(1 / 4), math.pi / 4, math.pi / 4, math.pi / 4,
             math.atan(2 / 3), math.pi / 4, math.pi / 4, 0.0],
            atol=1e-14)

    def test_zero_weight_branch_gets_zero_angle(self):
        tree = solve_angles(PrepTarget(np.array([1.0, 0, 0, 0])))
        assert tree.levels[0][0] == 0.0
        assert tree.levels[1] == (0.0, 0.0)

    def test_reconstruct_matches_target_including_signs(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=2 ** n)
            c /= np.linalg.norm(c)
            tree = solve_angles(PrepTarget(c))
            np.testing.assert_allclose(angle_tree_coefficients(tree), c, atol=1e-12)


class TestEmitCircuit:
    def test_single_qubit_tree(self):
        target = PrepTarget(np.array([math.cos(0.3), math.sin(0.3)]))
        circ = emit_prep_circuit(solve_angles(target))
        assert len(circ) == 1 and circ.gates[0].kind == "utheta"

    def test_gate_count_is_full_binary_tree(self):
        for n in range(1, 6):
            c = np.full(2 ** n, 1 / SQ(2 ** n))
            circ = emit_prep_circuit(solve_angles(PrepTarget(c)))
            assert len(circ) == 2 ** n - 1

    def test_round_trip_with_mixed_signs(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=2 ** n)
            c[rng.random(size=2 ** n) < 0.3] = 0.0
            norm = np.linalg.norm(c)
            if norm == 0:
                continue
            c /= norm
            np.testing.assert_allclose(run_prep(PrepTarget(c)), c, atol=1e-10)

    def test_cost_matches_closed_form(self):
        for n in range(2, 9):
            c = np.full(2 ** n, 1 / SQ(2 ** n))
            circ = emit_prep_circuit(solve_angles(PrepTarget(c)))
            bound = 2 * sum(2 ** (lev - 1) * (lev - 1) ** 2 for lev in range(1, n + 1))
            assert cnot_cost(circ) == bound

    @pytest.mark.parametrize("offset", [0, 1, 3, 4])
    def test_tree_placed_on_a_wider_register(self, offset):
        # tree qubit q is register qubit offset + q: every gate shifted,
        # nothing else changed, on the smallest register that holds it
        rng = np.random.default_rng(offset)
        c = rng.normal(size=16)
        tree = solve_angles(PrepTarget(c / np.linalg.norm(c)))
        alone = emit_prep_circuit(tree)
        placed = emit_prep_circuit(tree, offset=offset)
        assert placed.n_qubits == offset + 4
        assert [(g.kind, g.target - offset, [(q - offset, p) for q, p in g.controls], g.theta)
                for g in placed.gates] == [(g.kind, g.target, list(g.controls), g.theta)
                                           for g in alone.gates]

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("offset", [0, 5])
    def test_tables_build_the_per_bit_gates(self, n, offset):
        # each branch's controls, joined from the high and low bits' tables,
        # equal the ones its index spells out one bit at a time
        rng = np.random.default_rng(n)
        tree = AngleTree(tuple(tuple(rng.uniform(-math.pi, math.pi, size=2 ** lev).tolist())
                               for lev in range(n)))
        circ = emit_prep_circuit(tree, offset=offset)
        want = emit_prep_circuit_by_bit(tree, offset=offset)
        assert circ.n_qubits == want.n_qubits == offset + n
        assert circ.gates == want.gates
        # and so do the masks, highest qubit and cost stored beside them
        assert list(map(gate_slots, circ.gates)) == list(map(gate_slots, want.gates))

    @pytest.mark.parametrize("angle", [1, np.float64(0.25), -0.0, 1e308])
    @pytest.mark.parametrize("offset", [0, 2])
    def test_angles_of_any_accepted_type_build_as_checked(self, angle, offset):
        # an int, a NumPy float, -0.0 and angles whose sum overflows are
        # angles Gate accepts; they keep their type and value
        tree = AngleTree(((0.5,), (angle, angle)))
        circ = emit_prep_circuit(tree, offset=offset)
        want = emit_prep_circuit_by_bit(tree, offset=offset)
        assert list(map(gate_slots, circ.gates)) == list(map(gate_slots, want.gates))

    @pytest.mark.parametrize("angle, offset, message", [
        (math.nan, 0, "finite real theta"),
        (math.inf, 0, "finite real theta"),
        (True, 0, "finite real theta"),
        ("0.5", 0, "finite real theta"),
        (0.5, -1, "negative qubit index"),
        (0.5, 1023, "qubit index above 1023"),
        (0.5, 1.0, "target must be an integer"),
    ])
    def test_invalid_angles_and_offsets_fail_as_in_gate(self, angle, offset, message):
        # what Gate refuses, emit_prep_circuit refuses with Gate's message
        tree = AngleTree(((0.5,), (0.25, angle)))
        with pytest.raises(ValueError, match=message):
            emit_prep_circuit(tree, offset=offset)
        with pytest.raises(ValueError, match=message):
            emit_prep_circuit_by_bit(tree, offset=offset)

    @pytest.mark.parametrize("offset", [True, False])
    def test_bool_offset_fails(self, offset):
        # True + q is a plain int, so a bool offset would build on qubit 1
        with pytest.raises(ValueError, match="offset must be an integer, got"):
            emit_prep_circuit(AngleTree(((0.5,),)), offset=offset)


class TestPrepForSpec:
    def test_one_to_two_values(self):
        target = prep_for_spec(BasisLayout.packed(CloneSpec(1, 2)))
        np.testing.assert_allclose(target.coeffs, [SQ(2 / 3), SQ(1 / 6), SQ(1 / 6), 0.0],
                                   atol=1e-14)

    def test_two_to_four_is_the_packed_fifteen_amplitude_state(self):
        target = prep_for_spec(BasisLayout.packed(CloneSpec(2, 4)))
        np.testing.assert_allclose(target.coeffs, eq_two_to_four_target().coeffs, atol=1e-14)

    def test_aux_variant_enlarges_register(self):
        layout = BasisLayout.packed(CloneSpec(3, 6))
        assert layout.register.n_aux == 1 and layout.prep_qubits == 7
        target = prep_for_spec(layout)
        assert target.n_qubits == 7
        assert int(np.sum(target.coeffs > 0)) == 84

    def test_boundary_spec_gets_aux_headroom(self):
        layout = BasisLayout.packed(CloneSpec(2, 3))
        assert layout.register.n_aux == 1  # all four bases would otherwise be populated

    def test_aux_is_the_fewest_qubits_leaving_a_free_basis(self):
        for n in range(1, 5):
            for m in range(n + 1, 7):
                spec = CloneSpec(n, m)
                layout = BasisLayout.packed(spec)
                count = basis_count(spec)
                assert count < 2 ** layout.prep_qubits, spec
                assert layout.register.n_aux == 0 or count >= 2 ** (layout.prep_qubits - 1), spec

    def test_custom_layout_must_match_multiset(self):
        spec = CloneSpec(1, 2)
        good = BasisLayout.custom(spec, [(0, SQ(2 / 3)), (1, SQ(1 / 6)), (3, SQ(1 / 6))])
        np.testing.assert_allclose(
            prep_for_spec(good).coeffs, [SQ(2 / 3), SQ(1 / 6), 0.0, SQ(1 / 6)], atol=1e-14)
        for top in (SQ(1 / 2), math.nan, math.inf):
            with pytest.raises(ValueError, match="multiset"):
                BasisLayout.custom(spec, [(0, top), (1, SQ(1 / 6)), (3, SQ(1 / 6))])

    @pytest.mark.parametrize("amp", [0.0, -0.5, math.nan])
    def test_placed_amplitudes_must_be_positive(self, amp):
        with pytest.raises(ValueError, match="must be positive"):
            BasisLayout(RegisterLayout(CloneSpec(1, 2)), ((0, 1.0), (1, amp)))

    @pytest.mark.parametrize("register, placements, message", [
        (RegisterLayout(CloneSpec(1, 2)), ((1, 0.5), (0, 0.5), (1, 0.5)), "basis 1 placed twice"),
        (RegisterLayout(CloneSpec(1, 2)), ((0, 0.5), (4, 0.5)),
         "basis 4 out of range for 2 prep qubits"),
        (RegisterLayout(CloneSpec(1, 2), 1), ((8, 0.5),), "basis 8 out of range for 3 prep qubits"),
        (RegisterLayout(CloneSpec(1, 2)), ((-1, 0.5),), "basis -1 out of range for 2 prep qubits"),
    ])
    def test_bases_must_be_distinct_and_in_range(self, register, placements, message):
        with pytest.raises(ValueError) as err:
            BasisLayout(register, placements)
        assert str(err.value) == message

    @pytest.mark.parametrize("basis", [1.0, np.int64(1), True])
    def test_placed_basis_must_be_an_int(self, basis):
        # a float basis used to fail later in prep_for_spec and build_permutation
        with pytest.raises(ValueError) as err:
            BasisLayout(RegisterLayout(CloneSpec(1, 2)),
                        ((0, SQ(2 / 3)), (basis, SQ(1 / 6)), (3, SQ(1 / 6))))
        assert str(err.value) == f"basis {basis!r} is not an int"

    def test_custom_takes_numpy_int_bases(self):
        spec = CloneSpec(1, 2)
        placements = [(np.int64(0), SQ(2 / 3)), (np.int64(1), SQ(1 / 6)), (np.int64(3), SQ(1 / 6))]
        layout = BasisLayout.custom(spec, placements)
        assert layout == BasisLayout.custom(spec, [(0, SQ(2 / 3)), (1, SQ(1 / 6)), (3, SQ(1 / 6))])
        assert all(type(k) is int for k, _ in layout.placements)

    def test_custom_refuses_fractional_and_bool_bases(self):
        # int(1.5) used to place the amplitude on basis 1 without a word
        spec = CloneSpec(1, 2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            BasisLayout.custom(spec, [(0, SQ(2 / 3)), (1.5, SQ(1 / 6)), (3, SQ(1 / 6))])
        with pytest.raises(ValueError) as err:
            BasisLayout.custom(spec, [(0, SQ(2 / 3)), (True, SQ(1 / 6)), (3, SQ(1 / 6))])
        assert str(err.value) == "basis True is not an int"


class TestValidation:
    @pytest.mark.parametrize("coeffs", [[1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0]])
    def test_target_must_be_normalized(self, coeffs):
        with pytest.raises(ValueError, match="not normalized"):
            PrepTarget(np.array(coeffs))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            PrepTarget(np.zeros(4))

    def test_target_length_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="^3 is not a power of two$"):
            PrepTarget(np.full(3, 1 / math.sqrt(3)))

    def test_angle_tree_level_needs_one_angle_per_branch(self):
        with pytest.raises(ValueError, match="^level 2 must have 2 angles$"):
            AngleTree(((0.1,), (0.2,)))
