"""The SDK's one sealed-message pair: ``seal_value`` / ``open_value``.

Each AAD a sealed message carries (docs/PROTOCOL.md, "Sealed messages")
gets one case: the pair must produce the bytes the spelled-out
``seal_envelope(key, pack(value), nonce, "aes", aad=...)`` produced, open
them back, and refuse any flipped byte.
"""

from __future__ import annotations

import pytest

from repro.crypto.authenc import open_value, seal_envelope, seal_value
from repro.crypto.keys import SymmetricKey
from repro.errors import IntegrityError
from repro.sdk import control
from repro.serde import pack

AADS = [
    b"provision",
    b"snapshot",
    b"resume",
    b"storage-handoff",
    b"kmigrate",
    b"agent-escrow",
    b"agent-release",
    b"journal",
    b"journal/kmigrate/source",
    b"journal/kmigrate/target",
    b"sealed-storage",
]

KEY = SymmetricKey(bytes(range(32)), "test-session")
NONCE = bytes(range(100, 116))
VALUE = {
    "kmigrate": bytes(range(32, 64)),
    "sequence": 7,
    "entries": {"pin": 1234, "owner": "alice"},
    "storage": None,
}


def test_the_key_record_aads_are_covered():
    assert set(control._KEY_RECORD_AAD.values()) <= set(AADS)


@pytest.mark.parametrize("aad", AADS)
def test_seal_value_is_the_spelled_out_seal(aad):
    spelled_out = seal_envelope(KEY, pack(VALUE), NONCE, "aes", aad=aad).to_bytes()
    assert seal_value(KEY, VALUE, NONCE, aad) == spelled_out


@pytest.mark.parametrize("aad", AADS)
def test_open_value_round_trips(aad):
    assert open_value(KEY, seal_value(KEY, VALUE, NONCE, aad), aad) == VALUE


@pytest.mark.parametrize("aad", AADS)
def test_a_flipped_byte_is_refused(aad):
    sealed = seal_value(KEY, VALUE, NONCE, aad)
    for position in (len(sealed) // 2, len(sealed) - 1):  # ciphertext, MAC
        mangled = bytearray(sealed)
        mangled[position] ^= 0x01
        with pytest.raises(IntegrityError):
            open_value(KEY, bytes(mangled), aad)
    with pytest.raises(IntegrityError):
        open_value(KEY, sealed, aad + b"/other")
