import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from oracle import gate_slots, random_circuit, states_close

from uqcm import (Circuit, CloneSpec, Control, Gate, RegisterLayout, StateVector, apply,
                  cnot_cost, inverse, reference_one_to_two)
from uqcm.circuit import MAX_QUBIT_INDEX, _reversed_bits, from_json, to_json


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(amps / np.linalg.norm(amps))


class TestApply:
    def test_cnot_flips_target(self):
        circ = Circuit(2, (Gate.of("cnot", 1, (Control(0, True),)),))
        out = apply(circ, StateVector.basis(2, 0b10))
        np.testing.assert_allclose(out.amps, StateVector.basis(2, 0b11).amps, atol=1e-15)

    def test_utheta_quarter_pi_makes_uniform(self):
        circ = Circuit(1, (Gate("utheta", 0, theta=math.pi / 4),))
        out = apply(circ, StateVector.basis(1, 0))
        np.testing.assert_allclose(out.amps, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_negative_control_fires_on_zero(self):
        circ = Circuit(2, (Gate.of("mcx", 1, (Control(0, False),)),))
        out = apply(circ, StateVector.basis(2, 0b00))
        np.testing.assert_allclose(out.amps, StateVector.basis(2, 0b01).amps, atol=1e-15)
        out2 = apply(circ, StateVector.basis(2, 0b10))
        np.testing.assert_allclose(out2.amps, StateVector.basis(2, 0b10).amps, atol=1e-15)

    def test_roty_rotation_convention(self):
        t = 0.37
        circ = Circuit(1, (Gate("roty", 0, theta=t),))
        out = apply(circ, StateVector.basis(1, 0))
        np.testing.assert_allclose(out.amps, [math.cos(t), math.sin(t)], atol=1e-15)
        out1 = apply(circ, StateVector.basis(1, 1))
        np.testing.assert_allclose(out1.amps, [-math.sin(t), math.cos(t)], atol=1e-15)

    def test_dimension_mismatch(self):
        circ = Circuit(2, (Gate("x", 0),))
        with pytest.raises(ValueError):
            apply(circ, StateVector.basis(3, 0))

    def test_norm_preserved_by_random_circuit(self):
        circ = random_circuit(5, 60, seed=4)
        out = apply(circ, random_state(5, seed=9))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


class TestCost:
    def test_empty_circuit(self):
        assert cnot_cost(Circuit(3, ())) == 0

    def test_single_qubit_gates_free(self):
        circ = Circuit(2, (Gate("roty", 0, theta=0.3), Gate("x", 1)))
        assert cnot_cost(circ) == 0

    def test_multi_control_quadratic_and_linear(self):
        mcx4 = Circuit(5, (Gate.of("mcx", 4, tuple(Control(q, True) for q in range(4))),))
        assert cnot_cost(mcx4, aux_available=False) == 16
        assert cnot_cost(mcx4, aux_available=True) == 4

    def test_single_control_costs_one_either_way(self):
        circ = Circuit(2, (Gate.of("mcx", 1, (Control(0, False),)),))
        assert cnot_cost(circ, aux_available=False) == 1
        assert cnot_cost(circ, aux_available=True) == 1

    def test_controlled_rotation_costs_two_flips(self):
        circ = Circuit(3, (Gate.of("utheta", 2, (Control(0, True), Control(1, False)), 0.2),))
        assert cnot_cost(circ) == 8
        assert cnot_cost(circ, aux_available=True) == 4

    def test_additive_over_concatenation(self):
        a = random_circuit(4, 20, seed=1)
        b = random_circuit(4, 20, seed=2)
        assert cnot_cost(Circuit(4, a.gates + b.gates)) == cnot_cost(a) + cnot_cost(b)


MASKS = "control masks must be ints, a set of qubits 0..1023 and the positive ones among them"


def gates_of_every_kind(max_controls=4):
    """Each kind with 0 to ``max_controls`` mixed-polarity controls, where the
    kind allows that many."""
    for kind in ("roty", "utheta", "x", "cnot", "mcx"):
        for c in range(max_controls + 1):
            if kind == "cnot" and c != 1:
                continue
            controls = tuple(Control(q, q % 2 == 0) for q in range(1, c + 1))
            yield Gate.of(kind, 0, controls, 0.25 if kind in ("roty", "utheta") else None)


class TestStoredCost:
    def test_stored_cost_is_the_method_cost(self):
        gates = list(gates_of_every_kind())
        assert len(gates) == 21
        for g in gates:
            assert g.cnot_eq == g.cnot_cost() == g.cnot_cost(aux_available=False), g
        assert cnot_cost(Circuit(5, tuple(gates))) == sum(g.cnot_cost() for g in gates)

    def test_aux_costs_are_unchanged(self):
        # a c-control flip costs c with aux (1 for c = 1), a rotation twice that
        for g in gates_of_every_kind():
            c = len(g.controls)
            want = (2 if g.kind in ("roty", "utheta") else 1) * c
            assert g.cnot_cost(aux_available=True) == want, g
        gates = tuple(gates_of_every_kind())
        assert cnot_cost(Circuit(5, gates), aux_available=True) == 2 * 2 * 10 + 2 * 10 + 1

    def test_stored_cost_is_kept_out_of_repr_equality_and_hash(self):
        gate = Gate.of("mcx", 0, (Control(1, True), Control(2, False)))
        assert gate.cnot_eq == 4
        assert "cnot_eq" not in repr(gate)
        other = Gate.of("mcx", 0, (Control(1, True), Control(2, False)))
        object.__setattr__(other, "cnot_eq", 5)   # as if stored wrongly
        assert gate == other and hash(gate) == hash(other)

    def test_replaced_gate_gets_its_own_cost(self):
        gate = Gate.of("cnot", 0, (Control(1, True),))
        wider = dataclasses.replace(gate, kind="mcx", control_mask=0b10010)
        rotation = dataclasses.replace(wider, kind="roty", theta=0.5)
        assert [g.cnot_eq for g in (gate, wider, rotation)] == [1, 4, 8]
        assert [g.top_qubit for g in (gate, wider, rotation)] == [1, 4, 4]
        # and its own controls, when its masks change polarity or number
        flipped = dataclasses.replace(wider, positive_mask=0b10000)
        bare = dataclasses.replace(flipped, target=7, control_mask=0, positive_mask=0)
        assert [g.controls for g in (gate, wider, flipped, bare)] == [
            (Control(1, True),), (Control(1, True), Control(4, False)),
            (Control(1, False), Control(4, True)), ()]
        assert bare.top_qubit == 7

    def test_masks_hold_the_control_qubits_and_the_positive_ones(self):
        # bit q of each mask is qubit q, whatever order the controls are
        # listed in, and controls lists them back in ascending qubit order
        rng = np.random.default_rng(8)
        for _ in range(60):
            qs = rng.permutation(10)
            controls = [Control(int(q), bool(rng.integers(2))) for q in qs[1:1 + rng.integers(10)]]
            g = Gate.of("mcx", int(qs[0]), controls)
            assert g.control_mask == sum(1 << q for q, _ in controls), g
            assert g.positive_mask == sum(1 << q for q, p in controls if p), g
            assert g.top_qubit == max([g.target] + [q for q, _ in controls]), g
            assert g.controls == tuple(sorted(controls)), g
        gate = Gate.of("mcx", 2, (Control(5, True), Control(0, False), Control(3, True)))
        assert (gate.control_mask, gate.positive_mask, gate.top_qubit) == (0b101001, 0b101000, 5)
        assert gate == Gate("mcx", 2, 0b101001, 0b101000)

    def test_highest_qubit_index_is_allowed(self):
        gate = Gate.of("mcx", MAX_QUBIT_INDEX - 1,
                       (Control(MAX_QUBIT_INDEX, True), Control(0, False)))
        assert (gate.control_mask, gate.positive_mask) == (1 << MAX_QUBIT_INDEX | 1,
                                                           1 << MAX_QUBIT_INDEX)
        assert gate.top_qubit == Gate("x", MAX_QUBIT_INDEX).top_qubit == MAX_QUBIT_INDEX

    @pytest.mark.parametrize("make, message", [
        # each message is the one the first failing check gives: the kind,
        # the controls' types, the target's type, duplicates, the target among
        # the controls, a negative index and last one above MAX_QUBIT_INDEX
        (lambda: Gate.of("mcx", 0, (Control(-1, True), Control(-1, False))),
         "duplicate control qubits in [-1, -1]"),
        (lambda: Gate.of("mcx", 0, (Control(-2, True), Control(3, True), Control(3, False))),
         "duplicate control qubits in [-2, 3, 3]"),
        (lambda: Gate.of("mcx", -1, (Control(1, True), Control(1, False))),
         "duplicate control qubits in [1, 1]"),
        (lambda: Gate.of("x", 1.5, ((0, True),)),
         "control (0, True) is not a Control(int qubit, bool polarity)"),
        (lambda: Gate.of("mcx", True, (Control(0, True), Control(1, 1))),
         "control Control(q=1, positive=1) is not a Control(int qubit, bool polarity)"),
        (lambda: Gate.of("mcx", 0, (Control(1, True), Control(1, False), Control(2.0, True))),
         "control Control(q=2.0, positive=True) is not a Control(int qubit, bool polarity)"),
        (lambda: Gate.of("mcx", 0, (Control(-1, True), Control(1, True), Control(2, None))),
         "control Control(q=2, positive=None) is not a Control(int qubit, bool polarity)"),
        (lambda: Gate.of("mcx", 2.0, (Control(1, True), Control(1, False))),
         "gate target must be an integer, got 2.0"),
        (lambda: Gate.of("mcx", 3, (Control(-2, True), Control(3, True))),
         "target 3 also appears as a control"),
        (lambda: Gate.of("cnot", -1, (Control(-1, True),)),
         "target -1 also appears as a control"),
        (lambda: Gate.of("mcx", -1, (Control(0, True), Control(1, True))),
         "negative qubit index in target -1 or controls [0, 1]"),
        (lambda: Gate.of("mcx", 0, (Control(2, True), Control(-3, False))),
         "negative qubit index in target 0 or controls [2, -3]"),
        (lambda: Gate.of("roty", 1, (Control(1, True),)),
         "target 1 also appears as a control"),
        (lambda: Gate.of("cnot", 0, (Control(1, True), Control(1, True))),
         "duplicate control qubits in [1, 1]"),
        (lambda: Gate.of("bogus", -1, (Control(0, True), Control(0, True))),
         "unknown gate kind 'bogus'"),
        (lambda: Gate.of("cnot", 0, (Control(1024, True),)),
         "qubit index above 1023 in target 0 or controls [1024]"),
        (lambda: Gate.of("x", 10 ** 12),
         "qubit index above 1023 in target 1000000000000 or controls []"),
        (lambda: Gate.of("mcx", 0, (Control(10 ** 12, True), Control(-1, True))),
         "negative qubit index in target 0 or controls [1000000000000, -1]"),
        (lambda: Gate.of("mcx", 0, (Control(10 ** 12, True), Control(10 ** 12, False))),
         "duplicate control qubits in [1000000000000, 1000000000000]"),
        (lambda: Gate.of("cnot", 0),
         "cnot requires exactly one control"),
        (lambda: Gate.of("cnot", 0, (Control(1, True), Control(2, False))),
         "cnot requires exactly one control"),
    ])
    def test_faults_give_the_first_checks_message(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("make, message", [
        # the constructor's own checks, in order, on masks it is given
        (lambda: Gate("bogus", -1, -1), "unknown gate kind 'bogus'"),
        (lambda: Gate("mcx", True, 0.5), "gate target must be an integer, got True"),
        (lambda: Gate("x", -1, 1.0), "negative qubit index in target -1"),
        (lambda: Gate("x", 1024), "qubit index above 1023 in target 1024"),
        *[(make, MASKS) for make in (
            lambda: Gate("mcx", 0, 0b10, True),
            lambda: Gate("mcx", 0, (Control(1, True),)),
            lambda: Gate("mcx", 0, -2),
            lambda: Gate("mcx", 0, 1 << 1024),
            lambda: Gate("mcx", 0, 0b10, 0b100),
            lambda: Gate("mcx", 0, 0b10, -1))],
        (lambda: Gate("mcx", 1, 0b11, 0b10, 0.5), "target 1 also appears as a control"),
        (lambda: Gate("roty", 0, 0b10), "roty gate requires a finite real theta, got None"),
        (lambda: Gate("cnot", 0, 0b110, 0b110), "cnot requires exactly one control"),
    ])
    def test_mask_faults_give_the_first_checks_message(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["cnot_eq", "top_qubit", "control_mask", "positive_mask",
                                      "target", "controls", "foo"])
    def test_gate_is_frozen(self, name):
        gate = Gate("x", 0)
        # a field, the controls property read off the masks, or a name the
        # gate does not have: each assignment and deletion is refused alike
        for change in (lambda: setattr(gate, name, 3), lambda: delattr(gate, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as err:
                change()
            assert type(err.value) is dataclasses.FrozenInstanceError
        assert gate.controls == ()
        assert not hasattr(gate, "__dict__")   # slots: no per-gate dict

    def test_copies_and_pickles_are_equal_checked_gates(self):
        gate = Gate.of("roty", 3, (Control(1, False), Control(9, True)), -0.0)
        for again in (copy.copy(gate), copy.deepcopy(gate), pickle.loads(pickle.dumps(gate))):
            assert again == gate and hash(again) == hash(gate)
            assert gate_slots(again) == gate_slots(gate)

    def test_control_order_leaves_equality_and_hash_alone(self):
        # seeded: each control list, shuffled, gives an equal gate with an
        # equal hash, its controls listed in ascending qubit order
        rng = np.random.default_rng(2727)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            target, *others = (int(q) for q in rng.permutation(n))
            controls = [Control(q, bool(rng.integers(2))) for q in others[:rng.integers(n)]]
            kind = ("x", "mcx", "roty", "utheta")[rng.integers(4)]
            theta = float(rng.uniform(-math.pi, math.pi)) if kind in ("roty", "utheta") else None
            gate = Gate.of(kind, target, controls, theta)
            rng.shuffle(controls)
            again = Gate.of(kind, target, controls, theta)
            assert again == gate and hash(again) == hash(gate)
            # the hash a frozen dataclass gives: that of its compared fields
            assert hash(gate) == hash((kind, target, gate.control_mask, gate.positive_mask, theta))
            assert gate.controls == tuple(sorted(controls))

    def test_any_mask_tuple_is_refused_or_round_trips(self):
        # seeded: random kinds, targets, masks and angles, invalid ones
        # among them, either raise ValueError or write and read back equal
        rng = np.random.default_rng(2728)
        built = refused = 0
        for _ in range(2000):
            kind = ("x", "cnot", "mcx", "roty", "utheta", "ry")[rng.integers(6)]
            target = int(rng.integers(-2, 12))
            mask = int(rng.integers(-4, 1 << 12))
            positive = mask & int(rng.integers(0, 1 << 12)) if rng.random() < 0.8 \
                else int(rng.integers(-4, 1 << 12))
            theta = (float(rng.uniform(-4, 4)), int(rng.integers(-3, 4)), None,
                     math.nan)[rng.integers(4)]
            try:
                gate = Gate(kind, target, mask, positive, theta)
            except ValueError:
                refused += 1
                continue
            built += 1
            circ = Circuit(gate.top_qubit + 1, (gate,))
            assert from_json(to_json(circ)) == circ
        assert built >= 100 and refused >= 1000, (built, refused)


class TestReversedBits:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1023])
    def test_reverses_the_low_n_bits(self, n):
        # an index (qubit 0 its top bit) as a mask (bit q qubit q) and back:
        # each value equals its digits read backward, and reversing twice
        # gives the value back, on widths around each byte boundary
        rng = np.random.default_rng(n)
        zs = [0, (1 << n) - 1] + [int.from_bytes(rng.bytes((n + 7) // 8), "big") >> (-n % 8)
                                  for _ in range(20)]
        for z in zs:
            mask = _reversed_bits(z, n)
            assert mask == int(format(z, f"0{n}b")[::-1] or "0", 2), (n, z)
            assert _reversed_bits(mask, n) == z


class TestInverse:
    def test_cnot_self_inverse(self):
        circ = Circuit(2, (Gate.of("cnot", 1, (Control(0, True),)),))
        assert inverse(circ).gates == circ.gates

    def test_roty_negates_angle(self):
        circ = Circuit(1, (Gate("roty", 0, theta=0.3),))
        assert inverse(circ).gates[0].theta == -0.3

    def test_round_trip_on_random_circuit(self):
        circ = random_circuit(5, 30, seed=12)
        state = random_state(5, seed=13)
        back = apply(inverse(circ), apply(circ, state))
        assert np.max(np.abs(back.amps - state.amps)) < 1e-10

    def test_every_self_inverse_kind_squares_to_identity(self):
        rng = np.random.default_rng(21)
        for kind in ("utheta", "x", "cnot", "mcx"):
            for trial in range(25):
                n = 3
                target = int(rng.integers(n))
                others = [q for q in range(n) if q != target]
                if kind == "x":
                    controls = ()
                elif kind == "cnot":
                    controls = (Control(others[0], bool(rng.integers(2))),)
                else:
                    controls = tuple(Control(q, bool(rng.integers(2))) for q in others[:2])
                theta = float(rng.uniform(-math.pi, math.pi)) if kind == "utheta" else None
                gate = Gate.of(kind, target, controls, theta)
                circ = Circuit(n, (gate, gate))
                state = random_state(n, seed=100 + trial)
                out = apply(circ, state)
                assert np.max(np.abs(out.amps - state.amps)) < 1e-12

    def test_utheta_matrix_is_involution(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            gate = Gate("utheta", 0, theta=float(rng.uniform(-math.pi, math.pi)))
            m = apply(Circuit(1, (gate,)), np.eye(2, dtype=complex)).T   # column j: image of |j>
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)


class TestValidation:
    def test_target_cannot_be_control(self):
        with pytest.raises(ValueError):
            Gate.of("cnot", 0, (Control(0, True),))

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError):
            Gate.of("mcx", 2, (Control(0, True), Control(0, False)))

    def test_rotation_requires_theta(self):
        with pytest.raises(ValueError):
            Gate("roty", 0)

    def test_flip_takes_no_theta(self):
        with pytest.raises(ValueError):
            Gate("x", 0, theta=0.5)

    def test_gate_indices_within_register(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("x", 2),))

    def test_register_error_names_the_first_gate_past_it(self):
        first = Gate.of("mcx", 1, (Control(4, True), Control(0, False)))
        gates = (Gate("x", 2), first, Gate("x", 3), Gate.of("cnot", 0, (Control(5, True),)))
        with pytest.raises(ValueError) as err:
            Circuit(3, gates)
        assert str(err.value) == f"gate {first} exceeds register of 3 qubits"

    def test_highest_qubit_is_kept_out_of_equality_and_repr(self):
        gate = Gate.of("mcx", 1, (Control(4, True), Control(0, False)))
        assert gate.top_qubit == 4
        assert gate == Gate.of("mcx", 1, (Control(4, True), Control(0, False)))
        assert repr(gate) == ("Gate(kind='mcx', target=1, control_mask=17, positive_mask=16, "
                              "theta=None)")

    def test_replaced_gate_gets_its_own_highest_qubit(self):
        gate = Gate.of("cnot", 0, (Control(1, True),))
        moved = dataclasses.replace(gate, target=6)
        assert (gate.top_qubit, moved.top_qubit) == (1, 6)
        assert Circuit(7, (gate, moved)).n_qubits == 7
        with pytest.raises(ValueError, match="exceeds register of 6 qubits"):
            Circuit(6, (gate, moved))

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError, match="n_qubits must not be negative, got -1"):
            Circuit(-1, ())

    def test_roles_must_partition(self):
        with pytest.raises(ValueError):
            Circuit(2, (), roles={"input": (0,)})

    def test_absent_role_has_no_qubits(self):
        assert reference_one_to_two().role_qubits("aux") == ()

    @pytest.mark.parametrize("n_aux, flag, message", [
        # n_aux = -1 would make qubit 2 of a 1->2 cloner both machine and flag
        (-1, True, "n_aux must be an int >= 0, got -1"),
        (True, True, "n_aux must be an int >= 0, got True"),
        (1.0, True, "n_aux must be an int >= 0, got 1.0"),
        (0, 2, "flag must be a bool, got 2"),
        (0, 1, "flag must be a bool, got 1"),
        (0, None, "flag must be a bool, got None"),
    ])
    def test_register_layout_takes_a_count_of_aux_qubits_and_a_flag(self, n_aux, flag, message):
        with pytest.raises(ValueError) as err:
            RegisterLayout(CloneSpec(1, 2), n_aux, flag)
        assert str(err.value) == message
        assert RegisterLayout(CloneSpec(1, 2), 2, False).roles()["aux"] == (3, 4)


class TestSerialization:
    def test_round_trip(self):
        circ = random_circuit(4, 25, seed=17)
        again = from_json(to_json(circ))
        assert again.n_qubits == circ.n_qubits
        assert again.gates == circ.gates

    def test_roles_survive(self):
        circ = Circuit(2, (Gate("x", 0),), roles={"input": (0,), "ancilla-flag": (1,)})
        again = from_json(to_json(circ))
        assert again.roles == circ.roles

    def test_theta_survives_at_full_precision(self):
        theta = 0.12345678901234567
        circ = Circuit(1, (Gate("utheta", 0, theta=theta),))
        assert from_json(to_json(circ)).gates[0].theta == theta

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            from_json('{"schema": "bogus", "n_qubits": 1, "gates": []}')

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace('"n_qubits": 2', '"n_qubits": true'),
        lambda t: t.replace('"n_qubits": 2', '"n_qubits": 2.0'),
        lambda t: t.replace("roty 0 1", "roty true 1"),
        lambda t: t.replace("roty 0 1", "roty 0 1.0"),
        lambda t: t.replace("@0.5", "@inf"),
        lambda t: t.replace("@0.5", "@true"),
        lambda t: t.replace("@0.5", "@[0.5]"),
        lambda t: t.replace('"input": [0]', '"input": [0.0]'),
    ])
    def test_rejects_non_integer_index_and_non_finite_theta(self, edit):
        circ = Circuit(2, (Gate.of("roty", 0, (Control(1, True),), 0.5),),
                       roles={"input": (0,), "ancilla-flag": (1,)})
        text = to_json(circ)
        assert edit(text) != text
        with pytest.raises(ValueError):
            from_json(edit(text))

    @pytest.mark.parametrize("layout", ["bare", "written"])
    def test_deeply_nested_json_is_a_value_error(self, layout):
        # json.loads runs out of stack on deep nesting; from_json, on a bare
        # array or on a uqcm-circuit/2 header line, gives a ValueError, not a
        # RecursionError
        deep = "[" * 100000
        text = deep if layout == "bare" else to_json(Circuit(1, (Gate("x", 0),))).replace(
            '"n_qubits": 1', '"n_qubits": ' + deep)
        with pytest.raises(ValueError, match="nested too deeply"):
            from_json(text)

    def test_apply_equivalence_after_round_trip(self):
        circ = random_circuit(4, 25, seed=19)
        state = random_state(4, seed=20)
        assert states_close(apply(circ, state), apply(from_json(to_json(circ)), state), atol=1e-12)
