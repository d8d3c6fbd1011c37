"""Tests of the circuit-file writer and reader.

``to_json`` writes ``uqcm-circuit/2`` text: a one-line JSON header of the
register size, roles and schema, then one line per gate.  ``from_json``
reads each distinct gate line once through the checked ``Gate``, and refuses
any other text, a file of the older ``uqcm-circuit/1`` schema included.
Whatever ``Gate`` and ``Circuit`` accept, ``from_json`` reads back, angle
types and signs included; every edited text either loads to a circuit that
round-trips or is a ValueError.
"""
import json
import math
import random

import numpy as np
import pytest
from oracle import circuit_text_by_qubit, random_circuit

from uqcm import Circuit, CloneSpec, Control, Gate, reference_one_to_two, synthesize_cloner
from uqcm.circuit import KINDS, MAX_QUBIT_INDEX, _gate_line, from_json, to_json

THETA_EDGES = Circuit(2, tuple(Gate.of("roty", 0, (Control(1, False),), t)
                               for t in (-0.0, 0.0, 1e-300, 3, 5e-324, 1e17, -2.5e-7, 2 ** 70)))


def same_angles(a, b):
    """Whether two circuits' gates have the same angles, as int or float and
    to the sign of a zero."""
    def angles(circ):
        return [None if t is None else float.__repr__(t) if isinstance(t, float) else int.__repr__(t)
                for t in (g.theta for g in circ.gates)]
    return angles(a) == angles(b)


def assert_round_trips(circ):
    """The written text reads back to ``circ``, angle types and signs kept, and
    writes back to the same bytes."""
    text = to_json(circ)
    again = from_json(text)
    assert again == circ
    assert same_angles(again, circ)
    assert to_json(again) == text
    assert text.isascii() and text.endswith("\n")
    assert text.count("\n") == 1 + len(circ.gates)


def chunk_edge_circuit(seed):
    """Seeded gates on 1024 qubits whose controls straddle every 8-qubit
    chunk edge (7/8, 15/16, ...) and reach MAX_QUBIT_INDEX, of mixed
    polarity, with int, float, -0.0 and numpy angles; some gate objects
    repeat, and some gates recur as fresh equal objects."""
    rng = np.random.default_rng(seed)
    n = MAX_QUBIT_INDEX + 1
    angles = (3, -7, 2 ** 70, 0.5, -0.0, 0.0, 1e-300, np.float64(-1.25), np.float64(0.0))
    gates = []
    for edge in [*range(8, n, 8), MAX_QUBIT_INDEX]:
        extra = rng.choice(n, size=int(rng.integers(0, 6)), replace=False)
        qubits = sorted({edge - 1, edge, *map(int, extra)})
        target = int(rng.choice(sorted(set(range(n)) - set(qubits))))
        controls = [Control(q, bool(rng.integers(2))) for q in qubits]
        kind = ("roty", "utheta", "x", "mcx")[rng.integers(4)]
        theta = angles[rng.integers(len(angles))] if kind in ("roty", "utheta") else None
        gates.append(Gate.of(kind, target, controls, theta))
        # one control alone on each side of the edge, and a chunk that is all
        # controls
        gates.append(Gate.of("cnot", target, [Control(edge - 1, bool(rng.integers(2)))]))
        gates.append(Gate.of("cnot", edge - 1, [Control(edge, bool(rng.integers(2)))]))
        base = edge - edge % 8
        gates.append(Gate.of("mcx", 0, [Control(q, bool(rng.integers(2)))
                                        for q in range(base, base + 8)]))
    gates += [Gate("x", MAX_QUBIT_INDEX), Gate("roty", 0, theta=-0.0)]
    shared = [gates[i] for i in rng.integers(len(gates), size=200)]
    fresh = [Gate(g.kind, g.target, g.control_mask, g.positive_mask, g.theta)
             for g in (gates[i] for i in rng.integers(len(gates), size=200))]
    everything = gates + shared + fresh
    order = rng.permutation(len(everything))
    return Circuit(n, tuple(everything[i] for i in order), roles={"all": tuple(range(n))})


@pytest.fixture(scope="module")
def large_circuits():
    return {nm: synthesize_cloner(CloneSpec(*nm)).circuit for nm in ((3, 6), (4, 8))}


class TestWriter:
    def test_grammar(self):
        # controls are written in ascending qubit order, whatever order they
        # were listed in
        circ = Circuit(3, (Gate.of("roty", 0, (Control(2, False), Control(1, True)), 0.5),
                           Gate("x", 1), Gate("utheta", 2, theta=3),
                           Gate.of("cnot", 2, (Control(0, False),)), Gate("mcx", 0, 0b110, 0b110)),
                       roles={"input": (0,), "blank": (1, 2)})
        assert to_json(circ) == (
            '{"n_qubits": 3, "roles": {"blank": [1, 2], "input": [0]}, "schema": "uqcm-circuit/2"}\n'
            "roty 0 1 ~2 @0.5\n"
            "x 1\n"
            "utheta 2 @3\n"
            "cnot 2 ~0\n"
            "mcx 0 1 2\n")
        assert to_json(Circuit(1, ())) == (
            '{"n_qubits": 1, "roles": {}, "schema": "uqcm-circuit/2"}\n')

    def test_sweep_circuits(self, sweep_results):
        # each full circuit holds every gate of both stages
        for res in sweep_results.values():
            assert_round_trips(res.circuit)

    def test_reference_network(self):
        assert_round_trips(reference_one_to_two())

    def test_shared_gates_write_like_fresh_ones(self, sweep_results):
        # to_json writes each gate object's line once and repeats it; a copy
        # built from fresh, unshared equal gates gives the same bytes
        for nm, res in sweep_results.items():
            circ = res.circuit
            fresh = Circuit(circ.n_qubits, tuple(
                Gate.of(g.kind, g.target, g.controls, g.theta)
                for g in circ.gates), circ.roles)
            assert len({id(g) for g in circ.gates}) < len(circ.gates), nm
            assert len({id(g) for g in fresh.gates}) == len(fresh.gates), nm
            assert to_json(fresh) == to_json(circ), nm

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_circuits(self, n):
        for seed in range(4):
            roles = {"input": tuple(range(n))} if seed % 2 else None
            assert_round_trips(random_circuit(n, 30, seed=100 * n + seed, roles=roles))

    @pytest.mark.parametrize("circ", [
        Circuit(3, ()),
        Circuit(2, (Gate("x", 1),)),
        Circuit(2, (), roles={"input": (0, 1), "blank": ()}),
        Circuit(2, (Gate("x", 0),), roles={'qu"bit\\ñ 𝜓': (1,), "a": (0,)}),
        Circuit(2, (Gate("x", 0),), roles={"line\nbreak\r": (1,), "": (0,)}),
        THETA_EDGES,
        Circuit(1, (Gate("utheta", 0, theta=np.float64(0.125)),)),
    ], ids=["no-gates", "no-roles", "empty-role", "escaped-role-name", "newline-role-name",
            "theta-edges", "numpy-theta"])
    def test_edge_cases(self, circ):
        assert_round_trips(circ)

    @pytest.mark.parametrize("seed", [3101, 3102, 3103])
    def test_chunked_writer_matches_the_per_qubit_oracle(self, seed):
        circ = chunk_edge_circuit(seed)
        objects = len({id(g) for g in circ.gates})
        assert len(set(circ.gates)) < objects < len(circ.gates)   # fresh copies, shared objects
        text = to_json(circ)
        assert text == circuit_text_by_qubit(circ)
        assert f" ~{MAX_QUBIT_INDEX}" in text or f" {MAX_QUBIT_INDEX}" in text
        assert_round_trips(circ)

    def test_header_is_one_ascii_line(self):
        circ = Circuit(2, (Gate("x", 0),), roles={"ñ\n𝜓": (1,), "a\r\nb": (0,)})
        head, gates = to_json(circ).split("\n", 1)
        assert head.isascii() and gates == "x 0\n"
        assert json.loads(head)["roles"] == {"ñ\n𝜓": [1], "a\r\nb": [0]}

    def test_4_to_8_text_is_small(self, large_circuits):
        # the uqcm-circuit/1 JSON this format replaced took 23.5 MB
        circ = large_circuits[(4, 8)]
        text = to_json(circ)
        assert len(text) < 1_500_000, len(text)
        assert from_json(text) == circ

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
                gates.append(Gate.of(kind, target, controls, theta))
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
            assert_round_trips(circ)

        check()


# a uqcm-circuit/1 file, JSON with an object per gate and control, as it
# was written (indented) and on one line
VERSION_ONE_TEXT = """{
  "gates": [
    {
      "controls": [
        {
          "polarity": "positive",
          "q": 1
        }
      ],
      "kind": "cnot",
      "target": 0
    }
  ],
  "n_qubits": 2,
  "roles": {},
  "schema": "uqcm-circuit/1"
}"""
VERSION_ONE_COMPACT = ('{"gates": [{"controls": [{"polarity": "positive", "q": 1}], '
                       '"kind": "cnot", "target": 0}], "n_qubits": 2, "roles": {}, '
                       '"schema": "uqcm-circuit/1"}\n')


class TestOtherTexts:
    @pytest.mark.parametrize("text", [
        VERSION_ONE_TEXT,
        VERSION_ONE_COMPACT,
        "",
        "[]",
        "{ not json\n",
        '{"schema": "bogus", "n_qubits": 1, "roles": {}}\n',
        '{"n_qubits": 1, "roles": {}}\n',
    ], ids=["version-1", "version-1-compact", "empty", "array", "not-json", "schema-unknown",
            "schema-missing"])
    def test_refused_as_not_a_version_2_text(self, text):
        # only a uqcm-circuit/2 header starts a circuit file; the message
        # names it, and says how to replace a /1 file
        with pytest.raises(ValueError, match="not a uqcm-circuit/2 text.*uqcm synth"):
            from_json(text)


# what an edit inserts or writes over: the characters of numbers, controls,
# angles, kinds and the header
EDIT_CHARS = '0123456789-+.eE_~@ \n\t{}[]":,\\acdegiklnoqrstuvxy'


class TestReader:
    def test_wide_register_builds_no_wide_table(self):
        gate = Gate.of("cnot", 0, (Control(1, True),))
        text = to_json(Circuit(2, (gate,))).replace('"n_qubits": 2', '"n_qubits": 1000000000000')
        circ = from_json(text)
        assert circ == Circuit(10 ** 12, (gate,))
        assert to_json(circ) == text   # nor does writing it back
        # nor do roles, which cannot cover that many qubits
        with pytest.raises(ValueError, match="do not partition"):
            from_json(text.replace('"roles": {}', '"roles": {"input": [0]}'))

    def test_wide_control_index_builds_no_wide_mask(self):
        # a gate holds its controls as bitmasks, so a control index past
        # MAX_QUBIT_INDEX is refused before a mask of that many bits is built
        text = ('{"n_qubits": 1000000000001, "roles": {}, "schema": "uqcm-circuit/2"}\n'
                "cnot 0 1000000000000\n")
        with pytest.raises(ValueError, match="qubit index above 1023"):
            from_json(text)

    def test_integer_angle_too_large_for_a_float(self):
        circ = Circuit(1, (Gate("roty", 0, theta=0.5),))
        with pytest.raises(ValueError, match="finite real theta"):
            from_json(to_json(circ).replace("@0.5", "@1" + "0" * 400))

    def test_edited_texts_load_or_fail(self, sweep_results):
        # one-character inserts, deletes and replaces of written texts, half
        # of them at a digit: each is a ValueError or a circuit that round-trips
        rng = random.Random(2626)
        circuits = [reference_one_to_two(), sweep_results[(2, 3)].circuit, THETA_EDGES,
                    random_circuit(5, 20, seed=16, roles={"a": (0, 1), "b": (2, 3, 4)})]
        loaded = failed = 0
        for circ in circuits:
            text = to_json(circ)
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            for _ in range(750):
                i = rng.choice(digits) if rng.random() < 0.5 else rng.randrange(len(text) + 1)
                op = rng.choice(("insert", "delete", "replace"))
                new = "" if op == "delete" else rng.choice(EDIT_CHARS)
                edited = text[:i] + new + text[i + (op != "insert"):]
                try:
                    read = from_json(edited)
                except ValueError:
                    failed += 1
                    continue
                loaded += 1
                again = from_json(to_json(read))
                assert again == read and same_angles(again, read), (op, i, new)
        # both outcomes are common: 755 of the 3000 edited texts load
        assert loaded >= 500 and failed >= 1500, (loaded, failed)

    @pytest.mark.parametrize("old, new, message", [
        ("roty 1 0 ~2 @0.5", "roty -1 0 ~2 @0.5", "negative qubit index"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~-2 @0.5", "negative qubit index"),
        ("roty 1 0 ~2 @0.5", "roty 1.5 0 ~2 @0.5", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty true 0 ~2 @0.5", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0.0 ~2 @0.5", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~~2 @0.5", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0  ~2 @0.5", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2 @0.5 ", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2 @", "could not convert"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2 @nan", "finite real theta"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2 @-inf", "finite real theta"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2 @true", "could not convert"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~2", "finite real theta"),
        ("roty 1 0 ~2 @0.5", "roty 1 @0.5 0 ~2", "invalid literal for int"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~0 @0.5", "duplicate control qubits"),
        ("roty 1 0 ~2 @0.5", "roty 1 0 ~1 @0.5", "target 1 also appears as a control"),
        ("roty 1 0 ~2 @0.5", "cnot 1 0 ~2", "cnot requires exactly one control"),
        ("roty 1 0 ~2 @0.5", "Roty 1 0 ~2 @0.5", "unknown gate kind"),
        ("roty 1 0 ~2 @0.5", "roty 1024 0 ~2 @0.5", "qubit index above 1023"),
        ("roty 1 0 ~2 @0.5", "roty 1\n0 ~2 @0.5", "finite real theta"),
        ("x 3", "x 3 @0.5", "x gate takes no theta"),
        ("x 3", "x 4", "exceeds register of 4 qubits"),
        ("x 3\n", "x 3\n\n", "not enough values"),
        ("x 3\n", "x 3", "must end with a newline"),
        ('"n_qubits": 4', '"n_qubits": "4"', "n_qubits must be an integer"),
        ('"n_qubits": 4', '"n_qubits": 4.0', "n_qubits must be an integer"),
        ('"n_qubits": 4', '"n_qubits": true', "n_qubits must be an integer"),
        ('"n_qubits": 4', '"n_qubits": -3', "n_qubits must not be negative"),
        ('"roles": {}', '"roles": []', "roles must map each name"),
        ('"roles": {}', '"roles": {"a": 0}', "roles must map each name"),
        ('"roles": {}', '"roles": {"a": [0.0, 1, 2, 3]}', "role qubits must be integers"),
        ('"uqcm-circuit/2"', '"uqcm-circuit/3"', "not a uqcm-circuit/2 text"),
    ], ids=["target-negative", "control-negative", "target-float", "target-bool",
            "control-float", "control-double-tilde", "double-space", "trailing-space",
            "theta-empty", "theta-nan", "theta-infinity", "theta-bool", "rotation-without-theta",
            "theta-before-control", "control-repeated", "target-among-controls",
            "cnot-two-controls", "kind-unknown", "target-1024", "line-split", "theta-on-a-flip",
            "target-outside-register", "empty-line", "no-final-newline", "n-qubits-string",
            "n-qubits-float", "n-qubits-bool", "n-qubits-negative", "roles-array",
            "role-not-list", "role-float-qubit", "schema-unknown"])
    def test_near_miss_texts(self, old, new, message):
        circ = Circuit(4, (Gate.of("roty", 1, (Control(0, True), Control(2, False)), 0.5),
                           Gate("x", 3)))
        text = to_json(circ)
        assert text.count(old) == 1
        with pytest.raises(ValueError, match=message):
            from_json(text.replace(old, new))

    @pytest.mark.parametrize("old, new, gate", [
        ("roty 1", "roty +1", Gate.of("roty", 1, (Control(0, True), Control(2, False)), 0.5)),
        ("roty 1", "roty 01", Gate.of("roty", 1, (Control(0, True), Control(2, False)), 0.5)),
        ("@0.5", "@5e-1", Gate.of("roty", 1, (Control(0, True), Control(2, False)), 0.5)),
        ("@0.5", "@-0.0", Gate.of("roty", 1, (Control(0, True), Control(2, False)), -0.0)),
        ("@0.5", "@1_0", Gate.of("roty", 1, (Control(0, True), Control(2, False)), 10)),
    ], ids=["target-plus", "target-leading-zero", "theta-exponent", "theta-negative-zero",
            "theta-underscore"])
    def test_other_spellings_read_as_int_and_float_do(self, old, new, gate):
        # the reader spells nothing out itself: a token is whatever int, or
        # float for an angle, makes of it, and writes back in the one spelling
        circ = Circuit(4, (Gate.of("roty", 1, (Control(0, True), Control(2, False)), 0.5),
                           Gate("x", 3)))
        read = from_json(to_json(circ).replace(old, new, 1))
        want = Circuit(4, (gate, Gate("x", 3)))
        assert read == want and same_angles(read, want)

    def test_long_bad_line_is_cut_in_the_message(self):
        line = "x 0 " + "~" * 1000
        with pytest.raises(ValueError) as info:
            from_json('{"n_qubits": 2, "roles": {}, "schema": "uqcm-circuit/2"}\n' + line + "\n")
        assert repr(line[:200]) in str(info.value)
        assert line not in str(info.value)


def twice(gate, edit):
    """The written text of ``gate`` twice, the second gate line edited."""
    head, first, second = to_json(Circuit(3, (gate, gate))).splitlines(keepends=True)
    assert edit(second) != second
    return head + first + edit(second)


class TestBuildCounts:
    def test_each_distinct_gate_is_built_and_written_once(self, large_circuits, monkeypatch):
        # the 4->8 circuit has 63 083 gates but 8 579 distinct gate objects
        # and lines: to_json builds no gate and each object's line once, and
        # from_json builds one gate per distinct line
        circ = large_circuits[(4, 8)]
        built, written = [], []
        init = Gate.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counted_line(gate, chunks):
            written.append(id(gate))
            return _gate_line(gate, chunks)

        monkeypatch.setattr(Gate, "__init__", counted_init)
        monkeypatch.setattr("uqcm.circuit._gate_line", counted_line)
        text = to_json(circ)
        assert len(circ.gates) == text.count("\n") - 1 == 63_083
        assert sorted(written) == sorted({id(g) for g in circ.gates})
        assert len(written) == len(set(text.split("\n")[1:-1])) == 8_579
        assert not built
        read = from_json(text)
        assert len(built) == 8_579
        assert read == circ


class TestLoaderMemo:
    @pytest.mark.parametrize("gate, edit", [
        (Gate.of("mcx", 1, (Control(0, True), Control(2, False))),
         lambda g: g.replace("mcx 1", "mcx true")),
        (Gate.of("cnot", 0, (Control(1, True),)), lambda g: g.replace("0 1", "0 1.0")),
        (Gate.of("cnot", 0, (Control(1, True),)), lambda g: g.replace("0 1", "0 true")),
        (Gate.of("cnot", 0, (Control(1, True),)), lambda g: g.replace("0 1", "0 {}")),
        (Gate("x", 0), lambda g: g.replace("x 0", 'x 0 ""')),
    ], ids=["true-target", "float-control", "true-control", "object-controls",
            "string-controls"])
    def test_reused_gate_does_not_excuse_a_bad_copy(self, gate, edit):
        # the memo keys on the whole line, so an edited copy of a gate already
        # read is read, and checked, on its own
        with pytest.raises(ValueError):
            from_json(twice(gate, edit))

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)])
    def test_equal_angles_of_another_spelling_stay_distinct(self, first, second):
        # the memo keys on the line, so it does not reuse the first gate for
        # the equal second one
        circ = Circuit(1, (Gate("roty", 0, theta=first), Gate("roty", 0, theta=second)))
        read = from_json(to_json(circ))
        assert same_angles(read, circ)
        for gate, want in zip(read.gates, (first, second)):
            assert math.copysign(1, gate.theta) == math.copysign(1, want)

    def test_repeated_gates_are_shared(self, sweep_results):
        circ = sweep_results[(2, 4)].circuit
        read = from_json(to_json(circ))
        assert len({id(g) for g in read.gates}) == len(set(read.gates)) < len(read.gates)


class TestConstructorMatchesLoader:
    """Whatever ``to_json`` is given, ``from_json`` reads back."""

    @pytest.mark.parametrize("make", [
        lambda: Circuit(3, (Gate("x", 1.5),)),
        lambda: Gate("x", True),
        lambda: Gate("x", np.int64(1)),
        lambda: Gate.of("cnot", 0, (Control(1.0, True),)),
        lambda: Gate.of("cnot", 0, (Control(1, 1),)),
        lambda: Gate.of("cnot", 0, ((1, True),)),
        lambda: Gate("roty", 0, theta=float("nan")),
        lambda: Gate("utheta", 0, theta=float("-inf")),
        lambda: Gate("roty", 0, theta=True),
        lambda: Gate("roty", 0, theta="0.5"),
        lambda: Gate("roty", 0, theta=10 ** 400),
        lambda: Circuit(2.0, ()),
        lambda: Circuit(1, (), roles={"input": (0.0,)}),
        lambda: Circuit(1, (), roles={1: (0,)}),
    ])
    def test_rejects_what_the_loader_rejects(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("gate", [
        Gate("roty", 0, theta=3),
        Gate("roty", 0, theta=-0.0),
        Gate.of("utheta", 0, (Control(1, True),), np.float64(-1.25)),
        Gate.of("mcx", 0, [Control(1, False)]),
    ])
    def test_accepted_gates_round_trip(self, gate):
        assert_round_trips(Circuit(2, (gate,)))
