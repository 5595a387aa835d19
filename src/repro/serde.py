"""Canonical serialization for simulated hardware state.

SSA frames, checkpoint payloads and channel messages must be *bytes* —
they live in (simulated) memory pages, are hashed, encrypted and shipped
over the network.  This module converts the restricted value universe we
allow in execution contexts (None, bool, int, str, bytes, lists, tuples,
dicts with string keys) to and from a canonical, deterministic byte
encoding: compact ASCII JSON with sorted keys, where bytes travel as
``{"__bytes__": "<lowercase hex>"}`` and tuples as ``{"__tuple__": [...]}``.

Determinism matters: MRENCLAVE and checkpoint hashes must be stable across
runs, so dict keys are sorted and bytes are hex-tagged rather than relying
on repr or pickle (which would also be a deserialization hazard for data
arriving from untrusted components).

:func:`pack` produces that format directly: every value appends its
canonical byte chunks to one list, joined once at the end, so a sealed
blob is hex-encoded straight to bytes with no JSON escape pass over it.
The bytes are exactly what ``json.dumps(tree, sort_keys=True,
separators=(",", ":"))`` writes for the tagged tree, so hashes, wire
bytes and journals do not depend on which encoder made them;
``tests/test_serde.py`` keeps that JSON-tree encoder as the oracle
:func:`pack` must equal byte for byte.  :func:`unpack` parses with
:mod:`json` and refuses, with :class:`SerdeError`, floats, non-finite
constants and mistyped tags.
"""

from __future__ import annotations

import json
from binascii import hexlify
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.errors import ReproError


class SerdeError(ReproError):
    """A value outside the canonical universe was (de)serialized."""


_BYTES_TAG = "__bytes__"
_TUPLE_TAG = "__tuple__"

#: Writes a list of int lists, such as a checkpoint's page index, in one
#: C-level pass; for plain ints its bytes are the canonical encoding.
_INT_ROWS = json.JSONEncoder(separators=(",", ":"))


def _int_rows(value: list) -> bool:
    """Whether ``value`` is a non-empty list of lists of plain ints (no
    bool or other int subclass), which needs no per-element encoding or
    decoding."""
    return (
        bool(value)
        and type(value[0]) is list
        and all(type(row) is list for row in value)
        and set(map(type, chain.from_iterable(value))) <= {int}
    )


def _emit_array(items, out: list[bytes]) -> None:
    out.append(b"[")
    for i, item in enumerate(items):
        if i:
            out.append(b",")
        _emit(item, out)
    out.append(b"]")


def _emit(value: Any, out: list[bytes]) -> None:
    """Append the canonical encoding of ``value`` to ``out``."""
    if value is None:
        out.append(b"null")
    elif value is True:
        out.append(b"true")
    elif value is False:
        out.append(b"false")
    elif isinstance(value, int):
        out.append(int.__repr__(value).encode())
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value).encode())
    elif isinstance(value, float):
        raise SerdeError("floats are not allowed in hardware state (non-deterministic)")
    elif isinstance(value, (bytes, bytearray)):
        out += (b'{"__bytes__":"', hexlify(value), b'"}')
    elif isinstance(value, tuple):
        out.append(b'{"__tuple__":')
        _emit_array(value, out)
        out.append(b"}")
    elif isinstance(value, list):
        if _int_rows(value):
            out.append(_INT_ROWS.encode(value).encode())
        else:
            _emit_array(value, out)
    elif isinstance(value, dict):
        # Entries are encoded in insertion order, so the first bad key or
        # value found is the one reported, and emitted in key order.
        entries = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerdeError(f"dict keys must be str, got {type(key).__name__}")
            if key in (_BYTES_TAG, _TUPLE_TAG):
                raise SerdeError(f"reserved key {key!r} in payload")
            entries[key] = chunks = [encode_basestring_ascii(key).encode(), b":"]
            _emit(item, chunks)
        out.append(b"{")
        for i, key in enumerate(sorted(entries)):
            if i:
                out.append(b",")
            out += entries[key]
        out.append(b"}")
    else:
        raise SerdeError(f"cannot serialize {type(value).__name__}")


def _refuse_float(text: str) -> Any:
    raise SerdeError(f"floats are not allowed in hardware state, got {text}")


_DECODER = json.JSONDecoder(parse_float=_refuse_float, parse_constant=_refuse_float)


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return value if _int_rows(value) else [_decode(v) for v in value]
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_TAG}:
            if not isinstance(value[_BYTES_TAG], str):
                raise SerdeError(f"{_BYTES_TAG} payload must be a hex string")
            return bytes.fromhex(value[_BYTES_TAG])
        if set(value.keys()) == {_TUPLE_TAG}:
            if not isinstance(value[_TUPLE_TAG], list):
                raise SerdeError(f"{_TUPLE_TAG} payload must be a list")
            return tuple(_decode(v) for v in value[_TUPLE_TAG])
        return {k: _decode(v) for k, v in value.items()}
    return value


def pack(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes."""
    out: list[bytes] = []
    _emit(value, out)
    return b"".join(out)


def unpack(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`pack`.

    Malformed JSON, floats, ``NaN``/``Infinity`` and tags whose payload has
    the wrong type all raise :class:`SerdeError`.
    """
    try:
        return _decode(_DECODER.decode(data.decode()))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerdeError(f"malformed canonical payload: {exc}") from exc
