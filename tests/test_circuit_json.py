"""Differential tests of the circuit-file writer and loader.

``to_json`` writes the ``uqcm-circuit/1`` text one fragment per gate; it must
give, byte for byte, what ``oracle.to_json_by_dumps`` (the circuit's dict
through ``json.dumps``) gives.  ``from_json`` reads that exact text by its
fragments (``_read_written``) and any other text through ``json.loads``
(``_load``); on every text, edited or not, the two must give the same circuit
or the same error, and the fragment reader must accept exactly the texts
that ``oracle.read_written_by_rerender`` accepts.  Both build each distinct gate once; a later gate that
differs only in a value's type or sign must not reuse it.  And whatever
``Gate`` and ``Circuit`` accept, ``from_json`` reads back.
"""
import gc
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from oracle import (checked_slots, gate_slots, random_circuit, read_written_by_rerender,
                    to_json_by_dumps)

from uqcm import Circuit, CloneSpec, Control, Gate, reference_one_to_two, synthesize_cloner
from uqcm.circuit import KINDS, _load, _read_written, from_json, to_json

THETA_EDGES = Circuit(2, tuple(Gate("roty", 0, (Control(1, False),), t)
                               for t in (-0.0, 0.0, 1e-300, 3, 5e-324, 1e17, -2.5e-7, 2 ** 70)))


def assert_writes_like_dumps(circ):
    text = to_json(circ)
    assert text == to_json_by_dumps(circ)
    again = from_json(text)
    assert again == circ
    assert to_json(again) == text
    assert _load(text) == circ


class TestWriter:
    def test_sweep_circuits(self, sweep_results):
        # each full circuit holds every gate of both stages
        for res in sweep_results.values():
            assert_writes_like_dumps(res.circuit)

    def test_reference_network(self):
        assert_writes_like_dumps(reference_one_to_two())

    def test_shared_gates_write_like_fresh_ones(self, sweep_results):
        # to_json renders each gate object once and repeats its text; a copy
        # built from fresh, unshared equal gates gives the same bytes
        for nm, res in sweep_results.items():
            circ = res.circuit
            fresh = Circuit(circ.n_qubits, tuple(
                Gate(g.kind, g.target, tuple(Control(q, p) for q, p in g.controls), g.theta)
                for g in circ.gates), circ.roles)
            assert len({id(g) for g in circ.gates}) < len(circ.gates), nm
            assert len({id(g) for g in fresh.gates}) == len(fresh.gates), nm
            assert to_json(fresh) == to_json(circ) == to_json_by_dumps(circ), nm

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_circuits(self, n):
        for seed in range(4):
            roles = {"input": tuple(range(n))} if seed % 2 else None
            assert_writes_like_dumps(random_circuit(n, 30, seed=100 * n + seed, roles=roles))

    @pytest.mark.parametrize("circ", [
        Circuit(3, ()),
        Circuit(2, (Gate("x", 1),)),
        Circuit(2, (), roles={"input": (0, 1), "blank": ()}),
        Circuit(2, (Gate("x", 0),), roles={'qu"bit\\ñ 𝜓': (1,), "a": (0,)}),
        THETA_EDGES,
        Circuit(1, (Gate("utheta", 0, (), np.float64(0.125)),)),
    ], ids=["no-gates", "no-roles", "empty-role", "escaped-role-name", "theta-edges",
            "numpy-theta"])
    def test_edge_cases(self, circ):
        assert_writes_like_dumps(circ)

    def test_writer_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def circuits(draw):
            n = draw(st.integers(1, 6))
            gates = []
            for _ in range(draw(st.integers(0, 12))):
                kind = draw(st.sampled_from(KINDS if n > 1 else ("roty", "utheta", "x")))
                target, *others = draw(st.permutations(range(n)))
                k = {"x": 0, "cnot": 1}.get(kind)
                if k is None:
                    k = draw(st.integers(0, n - 1))
                controls = tuple(Control(q, draw(st.booleans())) for q in others[:k])
                theta = None
                if kind in ("roty", "utheta"):
                    theta = draw(st.floats(allow_nan=False, allow_infinity=False)
                                 | st.integers(-2 ** 70, 2 ** 70))
                gates.append(Gate(kind, target, controls, theta))
            roles = None
            if draw(st.booleans()):
                names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True))
                owner = [draw(st.integers(0, len(names) - 1)) for _ in range(n)]
                roles = {name: tuple(q for q in range(n) if owner[q] == i)
                         for i, name in enumerate(names)}
            return Circuit(n, tuple(gates), roles)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(circ=circuits())
        def check(circ):
            assert_writes_like_dumps(circ)

        check()


def outcome(load, text):
    """What ``load`` makes of ``text``: the circuit with its bytes and angle
    types, None if it gives None, or the type of the error it raised."""
    try:
        circ = load(text)
    except Exception as exc:
        return type(exc)
    if circ is None:
        return None
    return circ, to_json(circ), [type(g.theta) for g in circ.gates]


def error_message(load, text):
    """The message of the error ``load`` raises on ``text``, or None."""
    try:
        load(text)
    except Exception as exc:
        return str(exc)
    return None


# what an edit inserts or writes over: JSON's punctuation and number
# characters, and letters of the keys, kinds and polarities
EDIT_CHARS = '0123456789-+.eE ,:"{}[]\n\\acdegiklnopqrstuvxy'


class TestWrittenLayoutReader:
    def test_reads_every_written_circuit(self, sweep_results):
        # the fragment reader, not json.loads, takes to_json's own text; a
        # compact copy of the same JSON is left to json.loads
        circuits = [res.circuit for res in sweep_results.values()]
        for circ in circuits + [reference_one_to_two(), THETA_EDGES]:
            text = to_json(circ)
            assert outcome(_read_written, text) == outcome(_load, text)
            assert _read_written(text) == circ
            compact = json.dumps(json.loads(text))
            assert _read_written(compact) is None
            assert outcome(from_json, compact) == outcome(_load, text)

    def test_wide_register_builds_no_wide_table(self):
        gate = Gate("cnot", 0, (Control(1, True),))
        text = to_json(Circuit(2, (gate,))).replace('"n_qubits": 2', '"n_qubits": 1000000000000')
        circ = _read_written(text)
        assert circ == Circuit(10 ** 12, (gate,)) == _load(text)
        assert to_json(circ) == text   # nor does writing it back

    def test_wide_control_index_builds_no_wide_mask(self):
        # a gate holds its controls as bitmasks, so a control index past
        # MAX_QUBIT_INDEX is refused before a mask of that many bits is built
        gate = Gate("cnot", 0, (Control(1, True),))
        text = to_json(Circuit(2, (gate,)))
        assert text.count('"q": 1\n') == 1
        text = (text.replace('"q": 1\n', '"q": 1000000000000\n')
                .replace('"n_qubits": 2', '"n_qubits": 1000000000001'))
        for load in (from_json, _load):
            with pytest.raises(ValueError, match="qubit index above 1023"):
                load(text)

    def test_integer_angle_too_large_for_a_float_fails_alike(self):
        text = to_json(Circuit(1, (Gate("roty", 0, (), 0.5),))).replace("0.5", "1" + "0" * 400)
        for load in (from_json, _load):
            with pytest.raises(ValueError, match="finite real theta"):
                load(text)

    def test_edited_files_read_alike(self, sweep_results):
        # one-character inserts, deletes and replaces of written files, half
        # of them at a digit, where an edit most often leaves a file that
        # to_json could have written: each edit gives the same circuit, bytes
        # and angle types, or the same error, through from_json as through
        # json.loads, and the fragment reader accepts it exactly when the
        # re-rendering oracle does, with the same circuit
        rng = random.Random(1616)
        circuits = [reference_one_to_two(), sweep_results[(2, 3)].circuit, THETA_EDGES,
                    random_circuit(5, 20, seed=16, roles={"a": (0, 1), "b": (2, 3, 4)})]
        read, edits = 0, 750
        for circ in circuits:
            text = to_json(circ)
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            for _ in range(edits):
                i = rng.choice(digits) if rng.random() < 0.5 else rng.randrange(len(text) + 1)
                op = rng.choice(("insert", "delete", "replace"))
                new = "" if op == "delete" else rng.choice(EDIT_CHARS)
                edited = text[:i] + new + text[i + (op != "insert"):]
                want = outcome(_load, edited)
                assert outcome(from_json, edited) == want, (op, i, new)
                got = outcome(_read_written, edited)
                assert got == outcome(read_written_by_rerender, edited), (op, i, new)
                read += type(got) is tuple
        # the reader took part: it read 399 of the 3000 edited files
        assert read >= 300, read

    @pytest.mark.parametrize("old, new", [
        ('"target": 3', '"target": +3'),
        ('"target": 3', '"target": 03'),
        ('"target": 3', '"target":  3'),
        ('"target": 3', '"target": \u0663'),
        ('"theta": 0.5', '"theta": 1_0'),
        ('"theta": 0.5', '"theta": 1e5'),
        ('"theta": 0.5', '"theta": NaN'),
        ('"theta": 0.5', '"theta": Infinity'),
        ('"theta": 0.5', '"theta": -0.0'),
        ('"theta": 0.5', '"theta": '),
        ('"target": 3', '"target": 3,\n      "theta": 0.5'),
        ('"q": 2\n        }\n      ]', '"q": 2\n        },\n      ]'),
        ('"q": 2\n        }\n      ]', '"q": 2\n        \n      ]'),
        ('"polarity": "negative"', '"polarity": "Negative"'),
        ('"q": 2\n', '"q":  2\n'),
        ('"q": 2\n', '"q": 2.0\n'),
        ('\n    }\n  ],', '\n    },\n    {\n    }\n  ],'),
        ('"gates": [\n    {\n', '"gates": [\n    {\n    },\n    {\n'),
        ('"q": 2\n', '"q": 0\n'),
        ('"target": 1,', '"target": 2,'),
        ('"kind": "roty",\n      "target": 1,\n      "theta": 0.5',
         '"kind": "cnot",\n      "target": 1'),
        ('"kind": "x"', '"kind": "y"'),
        ('"target": 3', '"target": 1024'),
        ('"kind": "x",\n      "target": 3',
         '"kind": "mcx",\n      "target": 3,\n      "theta": 0.5'),
        ('"target": 1,\n      "theta": 0.5', '"target": 1'),
    ], ids=["target-plus", "target-leading-zero", "target-space", "target-arabic-digit",
            "theta-underscore", "theta-exponent", "theta-nan", "theta-infinity",
            "theta-negative-zero", "theta-empty", "theta-on-a-flip", "controls-trailing-comma",
            "controls-unclosed", "control-polarity-case", "control-spacing", "control-float-q",
            "separator-over-closing", "separator-over-opening", "control-repeated",
            "target-among-controls", "cnot-two-controls", "kind-unknown", "target-1024",
            "theta-on-an-mcx", "rotation-without-theta"])
    def test_near_miss_gate_texts(self, old, new):
        # each edit keeps the file one character or one token away from what
        # to_json writes: from_json and json.loads agree, to the message of
        # the error, and the fragment reader gives None or the same circuit,
        # as the oracle reader does; where json.loads's circuit is an error,
        # the fragment reader reads no gate and leaves the error to it
        circ = Circuit(4, (Gate("roty", 1, (Control(0, True), Control(2, False)), 0.5),
                           Gate("x", 3)))
        text = to_json(circ)
        assert text.count(old) == 1
        edited = text.replace(old, new)
        want = outcome(_load, edited)
        assert outcome(from_json, edited) == want
        assert error_message(from_json, edited) == error_message(_load, edited)
        got = outcome(_read_written, edited)
        assert got is None or got == want
        assert got == outcome(read_written_by_rerender, edited)
        if type(want) is type:
            assert got is None
        if new.endswith("-0.0"):
            # exactly what to_json writes for a -0.0 angle, read as one
            assert got is not None
            assert math.copysign(1, got[0].gates[0].theta) == -1

    def test_repeats_are_not_copied(self):
        # one 10-control mcx, 5000 times: the reader keeps one copy of its
        # text, so its peak above the start is a small share of the file
        gate = Gate("mcx", 10, tuple(Control(q, q % 2 == 0) for q in range(10)))
        circ = Circuit(11, (gate,) * 5000)
        text = to_json(circ)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            read = from_json(text)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert read == circ
        assert peak < len(text) / 10, (peak, len(text))


class TestUncheckedBuilder:
    """Synthesis and the fragment reader build their gates with ``_gate``,
    which skips ``Gate``'s checks and takes the control masks it is given.
    Circuit equality leaves the masks, highest qubit and cost out, so each
    gate is held to the one the checked constructor makes of its parts."""

    @pytest.fixture(scope="class")
    def circuits(self, sweep_results):
        built = [res.circuit for res in sweep_results.values()]
        built += [synthesize_cloner(CloneSpec(*nm)).circuit for nm in ((3, 6), (4, 8))]
        return built

    def test_synthesized_gates_equal_checked_ones(self, circuits):
        for circ in circuits:
            distinct = {id(g): g for g in circ.gates}.values()
            assert [gate_slots(g) for g in distinct] == [checked_slots(g) for g in distinct]

    def test_read_back_gates_equal_checked_ones(self, circuits):
        for circ in circuits:
            read = from_json(to_json(circ))
            assert read == circ
            distinct = {id(g): g for g in read.gates}.values()
            assert [gate_slots(g) for g in distinct] == [checked_slots(g) for g in distinct]


def twice(gate, edit):
    """A file of ``gate`` twice, the second copy edited."""
    data = json.loads(to_json(Circuit(3, (gate, gate))))
    edit(data["gates"][1])
    return json.dumps(data)


class TestLoaderMemo:
    @pytest.mark.parametrize("gate, edit", [
        (Gate("mcx", 1, (Control(0, True), Control(2, False))),
         lambda g: g.update(target=True)),
        (Gate("cnot", 0, (Control(1, True),)),
         lambda g: g["controls"][0].update(q=1.0)),
        (Gate("cnot", 0, (Control(1, True),)),
         lambda g: g["controls"][0].update(q=True)),
        (Gate("cnot", 0, (Control(1, True),)),
         lambda g: g.update(controls={})),
        (Gate("x", 0), lambda g: g.update(controls="")),
    ], ids=["true-target", "float-control", "true-control", "object-controls",
            "string-controls"])
    def test_reused_gate_does_not_excuse_a_bad_copy(self, gate, edit):
        with pytest.raises(ValueError):
            from_json(twice(gate, edit))

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)])
    def test_equal_angles_of_another_spelling_stay_distinct(self, first, second):
        data = json.loads(to_json(Circuit(1, (Gate("roty", 0, (), first),) * 2)))
        data["gates"][1]["theta"] = second
        text = json.dumps(data, indent=2, sort_keys=True)
        circ = from_json(text)
        for gate, want in zip(circ.gates, (first, second)):
            assert type(gate.theta) is type(want)
            assert math.copysign(1, gate.theta) == math.copysign(1, want)
        assert to_json(circ) == text

    def test_repeated_gates_are_shared(self, sweep_results):
        circ = from_json(to_json(sweep_results[(2, 4)].circuit))
        assert len({id(g) for g in circ.gates}) == len(set(circ.gates)) < len(circ.gates)

    @pytest.mark.parametrize("text", [
        "[]",
        '{"schema": "uqcm-circuit/1", "n_qubits": 1, "roles": [], "gates": []}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 1, "roles": {"input": 0}, "gates": []}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 1, "roles": {}, "gates": {}}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 1, "roles": {}, "gates": [5]}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 1, "roles": {}, "gates": [[]]}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 2, "roles": {}, "gates": '
        '[{"kind": "cnot", "target": 1, "controls": [[0, "positive"]]}]}',
        '{"schema": "uqcm-circuit/1", "n_qubits": 2, "roles": {}, "gates": '
        '[{"kind": "cnot", "target": [1], "controls": [{"q": 0, "polarity": "positive"}]}]}',
        '{"schema": "uqcm-circuit/1", "n_qubits": -3, "gates": []}',
    ], ids=["array", "roles-array", "role-not-list", "gates-object", "gate-number",
            "gate-array", "control-array", "unhashable-target", "negative-n-qubits"])
    def test_rejects_malformed_structure(self, text):
        with pytest.raises(ValueError):
            from_json(text)


class TestLoaderLeavesCollectorAlone:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        # the loader pauses the cyclic collector; a good load and a bad one
        # must both hand it back as the caller left it
        circ = reference_one_to_two()
        text = to_json(circ)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert from_json(text) == circ
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="polarity"):
                from_json(text.replace('"positive"', '"sideways"', 1))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


class TestConstructorMatchesLoader:
    """Whatever ``to_json`` is given, ``from_json`` reads back."""

    @pytest.mark.parametrize("make", [
        lambda: Circuit(3, (Gate("x", 1.5),)),
        lambda: Gate("x", True),
        lambda: Gate("x", np.int64(1)),
        lambda: Gate("cnot", 0, (Control(1.0, True),)),
        lambda: Gate("cnot", 0, (Control(1, 1),)),
        lambda: Gate("cnot", 0, ((1, True),)),
        lambda: Gate("roty", 0, (), float("nan")),
        lambda: Gate("utheta", 0, (), float("-inf")),
        lambda: Gate("roty", 0, (), True),
        lambda: Gate("roty", 0, (), "0.5"),
        lambda: Gate("roty", 0, (), 10 ** 400),
        lambda: Circuit(2.0, ()),
        lambda: Circuit(1, (), roles={"input": (0.0,)}),
        lambda: Circuit(1, (), roles={1: (0,)}),
    ])
    def test_rejects_what_the_loader_rejects(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("gate", [
        Gate("roty", 0, (), 3),
        Gate("roty", 0, (), -0.0),
        Gate("utheta", 0, (Control(1, True),), np.float64(-1.25)),
        Gate("mcx", 0, [Control(1, False)]),
    ])
    def test_accepted_gates_round_trip(self, gate):
        assert_writes_like_dumps(Circuit(2, (gate,)))
