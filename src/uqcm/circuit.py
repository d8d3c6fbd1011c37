"""Gate-level circuit representation with polarity-annotated controls.

Gate kinds:
  roty(theta)  -- |0> -> cos t |0> + sin t |1>,  |1> -> -sin t |0> + cos t |1>
  utheta(theta)-- rows (cos t, sin t; sin t, -cos t); an involution
  x / cnot / mcx -- bit flip; cnot carries one control, mcx any number
Every gate may carry controls.  A positive control (filled circle) fires on
bit value 1, a negative control (open circle) fires on bit value 0.

Cost accounting is in CNOT-equivalents: single-qubit gates are free, a
1-control flip costs 1, a c-control flip costs c^2 (or c when an auxiliary
workspace qubit is assumed available), and a c-controlled rotation costs two
c-control flips.
"""
from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .cloner_math import CloneSpec
from .statevec import StateVector

# the schema of the circuit files to_json writes and from_json reads
CIRCUIT_SCHEMA = "uqcm-circuit/2"

# the highest qubit index a gate may name: a gate holds its control qubits
# as bitmasks, which grow with the highest of them
MAX_QUBIT_INDEX = 1023
_MASK_LIMIT = 1 << MAX_QUBIT_INDEX + 1

ROTATION_KINDS = ("roty", "utheta")
FLIP_KINDS = ("x", "cnot", "mcx")
KINDS = ROTATION_KINDS + FLIP_KINDS

class Control(NamedTuple):
    q: int
    positive: bool


def _is_finite(theta: int | float) -> bool:
    try:
        return math.isfinite(theta)
    except OverflowError:   # an int too large for a float
        return False


@dataclass(init=False, slots=True)
class Gate:
    # the control qubits, and the positive ones among them, as bitmasks: bit
    # q is qubit q (least significant first), while an amplitude index has
    # qubit 0 as its most significant bit; Gate.of takes a list of Controls
    kind: str
    target: int
    control_mask: int = 0
    positive_mask: int = 0
    theta: float | None = None
    # the highest qubit the gate touches, for the register-bound check
    top_qubit: int = field(init=False, repr=False, compare=False)
    # cnot_cost(), summed by cnot_cost(circuit) without a call per gate
    cnot_eq: int = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, target: int, control_mask: int = 0, positive_mask: int = 0,
                 theta: float | None = None) -> None:
        # the rules a circuit file is loaded by, so whatever to_json writes
        # from_json reads back: the target and masks exactly int (bool is not
        # an index), theta a finite int or float
        mask, positive = control_mask, positive_mask
        if kind not in KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if type(target) is not int:
            raise ValueError(f"gate target must be an integer, got {target!r}")
        if not 0 <= target <= MAX_QUBIT_INDEX:
            raise ValueError(f"negative qubit index in target {target}" if target < 0
                             else f"qubit index above {MAX_QUBIT_INDEX} in target {target}")
        if (type(mask) is not int or type(positive) is not int or not 0 <= mask < _MASK_LIMIT
                or positive & ~mask):
            raise ValueError(f"control masks must be ints, a set of qubits 0..{MAX_QUBIT_INDEX} "
                             "and the positive ones among them")
        if mask >> target & 1:
            raise ValueError(f"target {target} also appears as a control")
        if kind in ROTATION_KINDS:
            if (type(theta) is bool or not isinstance(theta, (int, float))
                    or not _is_finite(theta)):
                raise ValueError(f"{kind} gate requires a finite real theta, got {theta!r}")
        elif theta is not None:
            raise ValueError(f"{kind} gate takes no theta")
        if kind == "cnot" and mask.bit_count() != 1:
            raise ValueError("cnot requires exactly one control")
        # the gate's own __setattr__ refuses every assignment, so its slots
        # are filled past it
        set_slot = object.__setattr__
        set_slot(self, "kind", kind)
        set_slot(self, "target", target)
        set_slot(self, "control_mask", mask)
        set_slot(self, "positive_mask", positive)
        set_slot(self, "theta", theta)
        top = mask.bit_length() - 1
        set_slot(self, "top_qubit", top if top > target else target)
        set_slot(self, "cnot_eq", self.cnot_cost())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        # the frozen dataclass's hash, over the compared fields
        return hash((self.kind, self.target, self.control_mask, self.positive_mask, self.theta))

    def __reduce__(self):
        # copy and pickle rebuild the gate through __init__, not by assignment
        return Gate, (self.kind, self.target, self.control_mask, self.positive_mask, self.theta)

    @classmethod
    def of(cls, kind: str, target: int, controls=(), theta: float | None = None) -> "Gate":
        """The gate of ``Control``s listed in any order; a fault is named by the
        first check that fails, in the order below, then ``Gate``'s own."""
        if kind not in KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        controls = tuple(controls)
        for c in controls:
            if type(c) is not Control or type(c[0]) is not int or type(c[1]) is not bool:
                raise ValueError(f"control {c!r} is not a Control(int qubit, bool polarity)")
        if type(target) is not int:
            raise ValueError(f"gate target must be an integer, got {target!r}")
        qs = [c.q for c in controls]
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate control qubits in {qs}")
        if target in qs:
            raise ValueError(f"target {target} also appears as a control")
        if min(qs + [target]) < 0:
            raise ValueError(f"negative qubit index in target {target} or controls {qs}")
        if max(qs + [target]) > MAX_QUBIT_INDEX:
            raise ValueError(f"qubit index above {MAX_QUBIT_INDEX} in target {target} "
                             f"or controls {qs}")
        return cls(kind, target, sum(1 << q for q in qs), sum(1 << q for q, p in controls if p),
                   theta)

    @property
    def controls(self) -> tuple[Control, ...]:
        """The controls, in ascending qubit order."""
        mask, positive = self.control_mask, self.positive_mask
        return tuple(Control(q, bool(positive >> q & 1))
                     for q in range(mask.bit_length()) if mask >> q & 1)

    def inverse(self) -> "Gate":
        if self.kind == "roty":
            return Gate("roty", self.target, self.control_mask, self.positive_mask, -self.theta)
        return self  # utheta and all flips are involutions

    def cnot_cost(self, aux_available: bool = False) -> int:
        c = self.control_mask.bit_count()
        flips = c if c < 2 or aux_available else c * c
        return 2 * flips if self.kind in ROTATION_KINDS else flips


# each byte value with its 8 bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_bits(z: int, n: int) -> int:
    """The n low bits of z in reverse order: a basis index over n qubits
    (qubit 0 its most significant bit) as a control mask (bit q is qubit q),
    and a mask back as an index.  z must lie in 0..2^n - 1."""
    width = n + 7 >> 3
    return int.from_bytes(z.to_bytes(width, "little").translate(_REVERSED_BYTES),
                          "big") >> 8 * width - n


_TOP_QUBIT = attrgetter("top_qubit")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` qubits, with optional qubit roles."""

    n_qubits: int
    gates: tuple[Gate, ...]
    roles: dict[str, tuple[int, ...]] | None = field(default=None)

    def __post_init__(self) -> None:
        if type(self.n_qubits) is not int:
            raise ValueError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 0:
            raise ValueError(f"n_qubits must not be negative, got {self.n_qubits}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if max(map(_TOP_QUBIT, gates), default=-1) >= self.n_qubits:
            g = next(g for g in gates if g.top_qubit >= self.n_qubits)
            raise ValueError(f"gate {g} exceeds register of {self.n_qubits} qubits")
        if self.roles is not None:
            roles = {name: tuple(qs) for name, qs in self.roles.items()}
            object.__setattr__(self, "roles", roles)
            claimed = [q for qs in roles.values() for q in qs]
            if not all(type(name) is str for name in roles):
                raise ValueError(f"role names must be strings, got {list(roles)}")
            if not all(type(q) is int for q in claimed):
                raise ValueError(f"role qubits must be integers, got {roles}")
            # the count first, so a huge register builds no list of its qubits
            if len(claimed) != self.n_qubits or sorted(claimed) != list(range(self.n_qubits)):
                raise ValueError(f"roles {roles} do not partition qubits 0..{self.n_qubits - 1}")

    def __len__(self) -> int:
        return len(self.gates)

    def role_qubits(self, name: str) -> tuple[int, ...]:
        if self.roles is None or name not in self.roles:
            return ()
        return self.roles[name]


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit roles of an N->M cloner circuit, qubit 0 first:
        [ input (N) | blank (M-N) | machine (M-N) | aux (n_aux) | ancilla-flag ]
    The first 2M-N qubits are the cloner proper; after the run the clones are
    the first M of them.  Aux and flag qubits trail them, start in |0> and must
    end there.
    """

    spec: CloneSpec
    n_aux: int = 0
    flag: bool = True

    def __post_init__(self) -> None:
        if type(self.n_aux) is not int or self.n_aux < 0:
            raise ValueError(f"n_aux must be an int >= 0, got {self.n_aux!r}")
        if type(self.flag) is not bool:
            raise ValueError(f"flag must be a bool, got {self.flag!r}")

    @property
    def n_qubits(self) -> int:
        return self.spec.total_qubits + self.n_aux + int(self.flag)

    @property
    def trailing(self) -> tuple[int, ...]:
        """The aux and flag qubits."""
        return tuple(range(self.spec.total_qubits, self.n_qubits))

    def roles(self) -> dict[str, tuple[int, ...]]:
        n, m = self.spec.n_in, self.spec.m_out
        roles = {"input": tuple(range(n)), "blank": tuple(range(n, m)),
                 "machine": tuple(range(m, self.spec.total_qubits))}
        if self.n_aux:
            roles["aux"] = self.trailing[:self.n_aux]
        if self.flag:
            roles["ancilla-flag"] = (self.n_qubits - 1,)
        return roles

    @classmethod
    def of(cls, spec: CloneSpec, circuit: "Circuit") -> "RegisterLayout":
        """The layout ``circuit`` carries; ValueError unless it is one for ``spec``."""
        roles = circuit.roles or {}
        layout = cls(spec, len(roles.get("aux", ())), "ancilla-flag" in roles)
        if roles != layout.roles() or circuit.n_qubits != layout.n_qubits:
            raise ValueError(
                f"qubit roles {roles} on {circuit.n_qubits} qubits are not a {spec} cloner layout")
        return layout


def apply(circuit: Circuit, state: StateVector | np.ndarray) -> StateVector | np.ndarray:
    """Apply gates in order; returns a new state (unitary, norm-preserving).

    ``state`` is a StateVector, or a ``(k, 2**n)`` array of k amplitude rows
    that are all run at once (the result is a new array of the same shape).
    Nothing is kept between calls.  Each maximal run of consecutive flips (x,
    cnot, mcx) only permutes basis states, so it is worked out once as one
    index array (``_flip_sources``) and moves all k rows with one gather.
    Rotations go in groups: maximal runs on one target and one set of
    control qubits (one ``control_mask``, in any order) with pairwise
    distinct polarity patterns (``positive_mask``), a uniformly-controlled
    rotation such as a prep-tree level.  Each group is one update of the
    rows viewed as ``(k, 2**t, 2, 2**(n-1-t))`` for target t, each amplitude
    pair taking the entries its control bits select (the identity's where no
    gate matches).
    """
    n = circuit.n_qubits
    rows = state.amps[np.newaxis] if isinstance(state, StateVector) else np.asarray(state)
    if rows.ndim != 2 or rows.shape[1] != 2 ** n:
        raise ValueError(
            f"dimension mismatch: circuit on {n} qubits, state of shape {rows.shape}")
    out = rows.astype(complex)
    for flips, run in _runs(circuit.gates):
        if flips:
            out = np.take(out, _flip_sources(run, n), axis=1)
            continue
        for group in _rotation_groups(run):
            a0, a1, (m00, m01, m10, m11) = _group_update(out, group)
            b0 = m00 * a0 + m01 * a1
            a1[...] = m10 * a0 + m11 * a1
            a0[...] = b0
    return StateVector(out[0]) if isinstance(state, StateVector) else out


def _rotation_entries(g: Gate) -> tuple[float, float, float, float]:
    """Row-major entries of a rotation's 2x2 matrix."""
    c, s = math.cos(g.theta), math.sin(g.theta)
    return (c, -s, s, c) if g.kind == "roty" else (c, s, s, -c)


def _runs(gates: tuple[Gate, ...]):
    """Each maximal run of flips or of rotations in ``gates``, after whether
    it is flips."""
    flips = [g.kind in FLIP_KINDS for g in gates]
    start = 0
    while start < len(gates):
        kind = flips[start]
        try:
            stop = flips.index(not kind, start)
        except ValueError:
            stop = len(gates)
        yield kind, gates[start:stop]
        start = stop


_GROUP_KEY = attrgetter("target", "control_mask")
_POSITIVE = attrgetter("positive_mask")


def _rotation_groups(run):
    """Each group of the rotations ``run``: gates on one target and control
    mask whose polarity patterns (positive masks) are pairwise distinct."""
    for _, same in groupby(run, _GROUP_KEY):
        same = tuple(same)
        patterns = list(map(_POSITIVE, same))
        start, seen = 0, set(patterns)
        if len(seen) < len(same):   # a pattern repeats: its pairs start a new group
            seen = set()
            for i, pattern in enumerate(patterns):
                if pattern in seen:
                    yield same[start:i]
                    start, seen = i, set()
                seen.add(pattern)
        yield same[start:]


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _group_update(out: np.ndarray, gates: tuple[Gate, ...]):
    """The two views of the rows ``out`` where the group ``gates``' target is
    0 or 1, and the entries for each of their amplitude pairs."""
    target, controls = gates[0].target, gates[0].control_mask
    k, size = out.shape
    n = size.bit_length() - 1
    qs = [q for q in range(n) if controls >> q & 1]
    t = out.reshape(k, 1 << target, 2, -1)
    # table index bit i holds control qs[i]: masks[i] is the positive mask
    # of index i, and the table has the identity where no gate matches
    masks = [0]
    for q in qs:
        masks += [m | 1 << q for m in masks]
    entries = {g.positive_mask: _rotation_entries(g) for g in gates}
    table = np.array([entries.get(m, _IDENTITY) for m in masks], dtype=complex)
    # each pair's index, on the axes that carry its controls: (2**t, 1) for
    # controls before the target, (2**(n-1-t),) after, both if both, and
    # index 0 for every pair of an uncontrolled rotation
    before = np.arange(1 << target)[:, np.newaxis] if controls & (1 << target) - 1 else None
    after = np.arange(1 << (n - 1 - target)) if controls >> target else None
    pair = 0
    for i, q in enumerate(qs):
        axis, bit = (before, target - 1 - q) if q < target else (after, n - 1 - q)
        pair = pair | (axis >> bit & 1) << i
    return t[:, :, 0], t[:, :, 1], table.T[:, pair]


def _flip_sources(flips: tuple[Gate, ...], n: int) -> np.ndarray:
    """Index array ``src`` such that the run ``flips`` moves basis state
    ``src[j]`` to ``j``, for every basis index j over n qubits.

    src is the composition of the flips' own index maps, the first gate's
    innermost, so it is built from the first gate on as j -> table[L(j)]:
    L is an affine map of the index bits in mask order (bit q is qubit q),
    kept as the image of each qubit's unit mask and a shift, and ``table``
    starts as the identity.  A flip with at most one control is affine, so
    it only changes L, by one or two XORs of small ints; its control's image
    is no longer the unit mask, and the qubit is marked dirty.  A flip with
    c >= 2 controls swaps the table entries at L of each of its 2^(n-1-c)
    index pairs: one pair for the full-pattern mcx of the permutation stage,
    swapped in a list, and more in one vectorized swap.  L of a gate's
    control pattern is the shift XOR the images of its positive controls:
    the clean ones' are their bits of ``positive_mask``, and each dirty
    one's image is XORed in on its own.  The table holds indices at mask
    positions, so src is one gather of it, or, with no table, the span of
    the shift and images bit-reversed.  No gate costs work over all 2^n
    indices.
    """
    # the identity table: entry p, a mask, holds p as an index
    units = [1 << q for q in range(n)]
    image = units.copy()
    full = (1 << n) - 1
    dirty = shift = 0
    table = None
    for g in flips:
        controls, flipped = g.control_mask, image[g.target]
        if not controls & controls - 1:   # at most one control
            if controls:
                image[controls.bit_length() - 1] ^= flipped
                dirty |= controls
            if not g.positive_mask:
                shift ^= flipped
            continue
        positive = g.positive_mask
        at = shift ^ positive & ~dirty
        stained = positive & dirty
        while stained:
            q = stained.bit_length() - 1
            at ^= image[q]
            stained ^= 1 << q
        if g.control_mask | 1 << g.target == full:
            if table is None:
                table = _span(0, units).tolist()
            other = at ^ flipped
            table[at], table[other] = table[other], table[at]
            continue
        if type(table) is not np.ndarray:
            table = _span(0, units) if table is None else np.array(table)
        free = full ^ g.control_mask ^ 1 << g.target
        at = _span(at, [image[q] for q in range(n) if free >> q & 1])
        other = at ^ flipped
        table[at], table[other] = table[other], table[at]
    if table is None:
        return _span(_reversed_bits(shift, n), [_reversed_bits(i, n) for i in image])
    return np.take(table, _span(shift, image))


def _span(shift: int, images: list[int]) -> np.ndarray:
    """``shift`` XOR each subset of ``images``: entry i takes ``images[-1-b]``
    for each set bit b of i."""
    out = np.array([shift], dtype=np.intp)
    for image in reversed(images):
        out = np.concatenate((out, out ^ image))
    return out


_CNOT_EQ = attrgetter("cnot_eq")


def cnot_cost(circuit: Circuit, aux_available: bool = False) -> int:
    """Total CNOT-equivalent cost; additive over concatenation.  Without aux
    it sums the cost each gate stored when it was built."""
    if aux_available:
        return sum(g.cnot_cost(True) for g in circuit.gates)
    return sum(map(_CNOT_EQ, circuit.gates))


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with each gate inverted."""
    return Circuit(circuit.n_qubits, tuple(g.inverse() for g in reversed(circuit.gates)),
                   circuit.roles)


class _Memo(dict):
    """A dict that fills each missing key with ``fill(key)``, for a memo that
    lives for one call."""

    __slots__ = ("fill",)

    def __init__(self, fill) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _chunk_text(key: tuple[int, int, int]) -> str:
    """The control tokens of one 8-qubit chunk: ``key`` is the chunk's first
    qubit and its control and positive masks over the chunk's 8 bits."""
    base, mask, positive = key
    return " ".join(str(base + q) if positive >> q & 1 else f"~{base + q}"
                    for q in range(8) if mask >> q & 1)


def _gate_line(g: Gate, chunks: _Memo) -> str:
    """The ``uqcm-circuit/2`` line of a gate: ``kind target c1 c2 ... [@theta]``,
    its controls in ascending qubit order, joined from the text of each
    8-qubit chunk that holds one (``chunks``, a memo of ``_chunk_text``)."""
    parts = [g.kind, str(g.target)]
    mask, positive, base = g.control_mask, g.positive_mask, 0
    while mask:
        if mask & 255:
            parts.append(chunks[base, mask & 255, positive & 255])
        mask >>= 8
        positive >>= 8
        base += 8
    theta = g.theta
    if theta is not None:   # float.__repr__ for numpy floats too, whose repr names the type
        parts.append("@" + (float.__repr__ if isinstance(theta, float) else int.__repr__)(theta))
    return " ".join(parts)


def to_json(circuit: Circuit) -> str:
    """The circuit as ``uqcm-circuit/2`` text: a one-line JSON header of the
    register size, roles and schema, then one ``_gate_line`` per gate, each
    line ended by a newline."""
    head = json.dumps({"n_qubits": circuit.n_qubits, "schema": CIRCUIT_SCHEMA,
                       "roles": {name: list(qs) for name, qs in (circuit.roles or {}).items()}},
                      sort_keys=True)
    # each gate object's line is built once and repeated (synthesis shares
    # gate objects); the circuit holds every gate, so no id is reused meanwhile
    gates = circuit.gates
    ids = list(map(id, gates))
    chunks = _Memo(_chunk_text)
    texts = {i: _gate_line(g, chunks) for i, g in dict(zip(ids, gates)).items()}
    return "\n".join([head, *map(texts.__getitem__, ids), ""])


def from_json(text: str) -> Circuit:
    """Load ``uqcm-circuit/2`` text: a JSON header line of the register size,
    roles and schema, then one gate line each (``_read_lines``).  ValueError
    unless it holds a circuit."""
    head, _, body = text.partition("\n")
    try:
        header = json.loads(head)
    except RecursionError:
        raise ValueError("circuit header line is nested too deeply") from None
    except ValueError:
        header = None
    if type(header) is not dict or header.get("schema") != CIRCUIT_SCHEMA:
        raise ValueError(f'not a {CIRCUIT_SCHEMA} text: its first line must be a JSON object with '
                         f'"schema": "{CIRCUIT_SCHEMA}" (regenerate a uqcm-circuit/1 file with '
                         "uqcm synth)")
    if not text.endswith("\n"):
        raise ValueError(f"a {CIRCUIT_SCHEMA} text must end with a newline")
    return _read_lines(header, body.split("\n")[:-1])


def _control(token: str) -> Control:
    """The control of a ``/2`` token: ``3`` positive, ``~3`` negative."""
    return Control(int(token[1:]), False) if token.startswith("~") else Control(int(token), True)


def _gate_of_tokens(kind: str, target: int, tokens: list[str], theta) -> Gate:
    """The gate of a line whose control tokens repeat a qubit or name one
    outside the register, read as masks over qubits 0..MAX_QUBIT_INDEX
    would be: controls on distinct qubits in that range make the gate that
    ``Gate`` checks, a qubit past the register left to ``Circuit`` to name;
    any others go through ``Gate.of``, which names the fault in the words
    the checked constructor used for a list of controls."""
    controls = tuple(map(_control, tokens))
    qs = {q for q, _ in controls}
    if len(qs) < len(controls) or not all(0 <= q <= MAX_QUBIT_INDEX for q in qs):
        return Gate.of(kind, target, controls, theta)
    return Gate(kind, target, sum(1 << q for q in qs), sum(1 << q for q, p in controls if p), theta)


def _read_lines(header: dict, lines: list[str]) -> Circuit:
    """The circuit of a ``/2`` header and its gate lines.  Each distinct line
    is read once, in file order, and built by the checked ``Gate``; an angle
    is an int, else a float.  Both masks come from one sum over the line's
    control tokens, each token's value looked up in a table that lives for
    this call alone: a control on qubit q is worth bit q, plus bit q + W
    when it is positive, W being the header's ``n_qubits`` when that is an
    int in 1..MAX_QUBIT_INDEX + 1 and MAX_QUBIT_INDEX + 1 otherwise; a qubit
    outside 0..W - 1 is worth 0, so it is never shifted.  The low W bits of
    the sum are the control mask and the rest the positive mask.  Distinct
    bits add without a carry, so low bits with fewer set bits than the line
    has tokens mean a repeated qubit or one outside the register, and that
    line goes to ``_gate_of_tokens``."""
    width = header.get("n_qubits")
    if type(width) is not int or not 0 < width <= MAX_QUBIT_INDEX + 1:
        width = MAX_QUBIT_INDEX + 1
    low = (1 << width) - 1

    def token_value(token: str) -> int:
        q, positive = _control(token)
        return 1 << q | positive << q + width if 0 <= q < width else 0

    table = _Memo(token_value)
    built = {}
    for line in dict.fromkeys(lines):
        try:
            kind, target, *rest = line.split(" ")
            theta = None
            if rest and rest[-1].startswith("@"):
                theta = rest.pop()[1:]
                try:
                    theta = int(theta)
                except ValueError:
                    theta = float(theta)
            target = int(target)
            both = sum(map(table.__getitem__, rest))
            mask = both & low
            built[line] = (Gate(kind, target, mask, both >> width, theta)
                           if mask.bit_count() == len(rest)
                           else _gate_of_tokens(kind, target, rest, theta))
        except ValueError as exc:
            raise ValueError(f"gate line {line[:200]!r}: {exc}") from None
    gates = tuple(map(built.__getitem__, lines))
    roles = header.get("roles", {})
    if type(roles) is not dict or not all(type(qs) is list for qs in roles.values()):
        raise ValueError(f"roles must map each name to a list of qubits, got {roles!r}")
    return Circuit(header.get("n_qubits"), gates, roles or None)
