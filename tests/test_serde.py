"""Canonical serialization: the byte format hardware state lives in."""

import enum
import json

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.strategies import recursive

from repro.serde import SerdeError, pack, unpack

# --------------------------------------------------------------------- oracle
# The JSON-tree encoder ``pack`` replaced: build the tagged tree, then let
# ``json.dumps`` write it.  ``pack`` must equal it byte for byte, so wire
# bytes, MRENCLAVE inputs and journal bytes cannot drift.


def _tree(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise SerdeError("floats are not allowed in hardware state (non-deterministic)")
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, tuple):
        return {"__tuple__": [_tree(v) for v in value]}
    if isinstance(value, list):
        return [_tree(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerdeError(f"dict keys must be str, got {type(key).__name__}")
            if key in ("__bytes__", "__tuple__"):
                raise SerdeError(f"reserved key {key!r} in payload")
            out[key] = _tree(item)
        return out
    raise SerdeError(f"cannot serialize {type(value).__name__}")


def reference_pack(value) -> bytes:
    return json.dumps(_tree(value), sort_keys=True, separators=(",", ":")).encode()


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# Strings mix hypothesis's own characters, lone surrogates, and quotes,
# backslashes, control characters, DEL, a JSON-special separator and
# non-BMP characters.
_awkward = st.sampled_from(
    ["\"", "\\", "\x00", "\x08", "\x1f", "\x7f", "/", "\u2028", "\xe9", "\U0001f600"]
)
_surrogates = st.integers(0xD800, 0xDFFF).map(chr)
_text = st.text(st.characters() | _surrogates | _awkward, max_size=12)
_keys = (_text | st.text("ab\"\\\x01\xe9", max_size=3)).filter(
    lambda k: k not in ("__bytes__", "__tuple__")
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.sampled_from(list(_Level))
    | _text
    | st.binary(max_size=16)
    | st.binary(max_size=16).map(bytearray)
)
canonical_values = recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys, children, max_size=5),
    max_leaves=24,
)
# The same universe with refusable parts mixed in anywhere: floats,
# unsupported objects, non-str keys and the two reserved tag keys.
_bad_keys = st.integers() | st.none() | st.binary(max_size=2) | st.sampled_from(
    ["__bytes__", "__tuple__"]
)
messy_values = recursive(
    _leaves | st.floats() | st.builds(object) | st.frozensets(st.integers(), max_size=2),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys | _bad_keys, children, max_size=5),
    max_leaves=24,
)


def _outcome(encoder, value):
    try:
        return ("ok", encoder(value))
    except Exception as exc:  # any type: the two encoders must raise alike
        return (type(exc), str(exc))


class TestSerde:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,
            "text",
            b"bytes\x00\xff",
            [1, 2, 3],
            (4, 5),
            {"a": 1, "b": [b"x", None]},
            {"nested": {"deep": {"bytes": b"\x01"}}},
        ],
    )
    def test_roundtrip(self, value):
        assert unpack(pack(value)) == value

    def test_deterministic_key_order(self):
        assert pack({"b": 1, "a": 2}) == pack({"a": 2, "b": 1})

    def test_tuple_distinct_from_list(self):
        assert unpack(pack((1, 2))) == (1, 2)
        assert unpack(pack([1, 2])) == [1, 2]

    def test_floats_rejected(self):
        with pytest.raises(SerdeError):
            pack(1.5)

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerdeError):
            pack({1: "a"})

    def test_reserved_keys_rejected(self):
        with pytest.raises(SerdeError):
            pack({"__bytes__": "hex"})

    def test_unserializable_rejected(self):
        with pytest.raises(SerdeError):
            pack(object())

    def test_malformed_bytes_rejected(self):
        with pytest.raises(SerdeError):
            unpack(b"not json at all {{{")
        with pytest.raises(SerdeError):
            unpack(b"\xff\xfe")

    @pytest.mark.parametrize(
        "data",
        [
            b'{"__bytes__":5}',
            b'{"__bytes__":null}',
            b'{"__tuple__":5}',
            b'{"__tuple__":"ab"}',
            b'{"__tuple__":{"a":1}}',
            b'{"k":[{"__bytes__":["00"]}]}',
            b"1.5",
            b"[1e3]",
            b'{"k":-0.0}',
            b"NaN",
            b"Infinity",
            b"-Infinity",
        ],
    )
    def test_payloads_pack_cannot_produce_are_refused(self, data):
        with pytest.raises(SerdeError):
            unpack(data)

    canonical = recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(
            st.text(max_size=8).filter(lambda k: not k.startswith("__")), children, max_size=4
        ),
        max_leaves=20,
    )

    @given(canonical)
    @settings(max_examples=80)
    def test_roundtrip_property(self, value):
        assert unpack(pack(value)) == value


class TestByteIdentity:
    """``pack`` writes exactly the bytes the JSON-tree encoder wrote."""

    @given(canonical_values)
    @settings(max_examples=300)
    @example({"b": 1, "a": 2, "\xe9": 3, '"': 4, "\\": 5, "\x01": 6, "A": 7, "": 8})
    @example(("\ud800", b"", bytearray(b"\x00\xff"), [None, True, False, -(2**70)]))
    @example({"lvl": _Level.HIGH, "nested": [[], (), {}, ((),)]})
    def test_pack_equals_reference(self, value):
        assert pack(value) == reference_pack(value)

    @given(messy_values)
    @settings(max_examples=200)
    # Several bad entries: the first in insertion order is reported.
    @example({"b": 1.5, 1: "x", "__bytes__": 0, "a": [object()]})
    @example({"a": [0, {"__tuple__": 1}], "b": {None: 1}})
    @example([{"k": 1}, (b"x", {2: 3}), 2.5])
    @example([[1, 2.5], [3]])
    def test_refusals_match_reference(self, value):
        assert _outcome(pack, value) == _outcome(reference_pack, value)

    # A list of plain-int lists (a checkpoint's page index) is written and
    # read in one pass; rows that mix in bools or IntEnums, or nest
    # deeper, go element by element.  Both must give the oracle's bytes.
    int_rows = st.lists(
        st.lists(st.integers() | st.integers(min_value=2**64, max_value=2**200), max_size=4)
        | st.lists(st.integers() | st.booleans() | st.sampled_from(list(_Level)), max_size=4)
        | st.lists(st.lists(st.integers(), max_size=2), max_size=2),
        max_size=6,
    )

    @given(int_rows)
    @settings(max_examples=100)
    @example([[0x1000, 4096], [0x2000, 4096]])
    @example([[], [-1, True], [_Level.LOW, 0]])
    def test_int_rows_equal_reference_and_roundtrip(self, rows):
        assert pack(rows) == reference_pack(rows)
        assert pack({"page_index": rows}) == reference_pack({"page_index": rows})
        assert unpack(pack(rows)) == rows
