"""Byte pins: the exact bytes an image measures to and an envelope seals to.

Each digest below was computed once and must never move.  A hot-path
rewrite of measurement or sealing (hashing in pieces, splitting by
memoryview, sizing from field lengths) has to reproduce these bytes under
both crypto backends; a change that means to move one is a format change
and says so.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.authenc import CIPHER_NAMES, Envelope, seal_envelope
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rsa import role_keypair
from repro.migration.checkpoint import EnclaveCheckpoint, TcsState, seal_checkpoint
from repro.sdk.builder import SdkBuilder
from repro.sdk.image import FLAG_FREE, FLAG_SPIN
from repro.sim.rng import DeterministicRng

from tests.conftest import make_counter_program

KEY = SymmetricKey(bytes(range(32)), "pin")

ENVELOPE_PINS = {
    "rc4": "8e56219471bd596ec7384a7bdaf73dd1be46cb8c027f57d52cdeaf8ba1d01772",
    "des": "36e137da4fe08f685c5f52041721ab54416cacdd8dfe393e4bcee9601f4b68c8",
    "aes": "a73e96a4569d211c80c498a30083bb50002f2336bb5bc24a57de3607b9e0b3e1",
    "aes-ni": "ea4e840ecd246a8accf49e9ce994fb2244fef1b7f8d0b31f4e6e2c1a1a7786b8",
    "aes-cbc": "98e7d1924ce4de3d8764c9bf3bd355039c78f2d02cfdb96e7665d94fe92e4fe4",
}

CHECKPOINT_PINS = {
    "rc4": "13abab126a27d266ae55a70cb415e8eb04b3f1e78856fe635cb745af36b32a68",
    "aes-ni": "c47701234eb01483065805a3bf6731daa8971f625bff030f86965de49bdf08bd",
}

#: A checkpoint of 272 pages (1.06 MB): the seal's multi-MB path, where the
#: cipher fills one preallocated buffer and the wire form is built once.
BULK_CHECKPOINT_PINS = {
    "rc4": "7f68a1651ef9490f9fee55c54d24967b4ff80fa798c64f0210fa9eab4d6ddb37",
    "aes-ni": "a982c5f6771389623f7fc8db7ed170facedc081d954330541074a9e3aab45c86",
}

MRENCLAVE_PIN = "2d4384ab708db051a729cd177c3d1eb0434fcf52ca8732d4e707ea44190bfe6e"


def _digest(envelope: Envelope) -> str:
    return hashlib.sha256(envelope.to_bytes()).hexdigest()


def test_every_cipher_is_pinned():
    assert set(ENVELOPE_PINS) == set(CIPHER_NAMES)


@pytest.mark.parametrize("algorithm", CIPHER_NAMES)
def test_seal_envelope_bytes(algorithm):
    envelope = seal_envelope(
        KEY, b"byte pin plaintext " * 7, b"pin-nonce-000001", algorithm, aad=b"pin-aad"
    )
    assert _digest(envelope) == ENVELOPE_PINS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(CHECKPOINT_PINS))
def test_seal_checkpoint_bytes(algorithm):
    checkpoint = EnclaveCheckpoint(
        image_name="pin",
        code_id="pin-v1",
        mrenclave=bytes(range(32)),
        sequence=3,
        pages={0x1000 * (i + 1): bytes([i * 17 % 256]) * 4096 for i in range(3)},
        tcs_states=[TcsState(0, 0, FLAG_FREE), TcsState(1, 2, FLAG_SPIN)],
        skipped_pages=[0x9000],
        storage_version=5,
    )
    envelope = seal_checkpoint(checkpoint, KEY, b"pin-nonce-000002", algorithm)
    assert _digest(envelope) == CHECKPOINT_PINS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(BULK_CHECKPOINT_PINS))
def test_seal_bulk_checkpoint_bytes(algorithm):
    checkpoint = EnclaveCheckpoint(
        image_name="pin-bulk",
        code_id="pin-v1",
        mrenclave=bytes(range(32)),
        sequence=7,
        pages={
            0x10000 + 0x1000 * i: bytes([(i * 37 + 11) % 256]) * 2048 + bytes(range(256)) * 8
            for i in range(272)
        },
        tcs_states=[TcsState(0, 0, FLAG_FREE), TcsState(1, 1, FLAG_SPIN)],
        skipped_pages=[0x9000],
        storage_version=2,
    )
    envelope = seal_checkpoint(checkpoint, KEY, b"pin-nonce-000003", algorithm)
    assert envelope.size == len(envelope.to_bytes()) > 1 << 20
    assert _digest(envelope) == BULK_CHECKPOINT_PINS[algorithm]


def test_mrenclave_of_a_small_image():
    builder = SdkBuilder(KeyPair(role_keypair("vendor"), "vendor"), DeterministicRng("pin"))
    built = builder.build(
        "counter-shared",
        make_counter_program("shared"),
        n_workers=1,
        heap_pages=1,
        global_names=("counter",),
    )
    assert built.image.mrenclave.hex() == MRENCLAVE_PIN


@given(
    algorithm=st.sampled_from(CIPHER_NAMES),
    plaintext=st.binary(max_size=600),
    nonce=st.binary(min_size=8, max_size=40),
    aad=st.binary(max_size=24),
)
@settings(max_examples=40, deadline=None)
def test_envelope_size_is_its_wire_length(algorithm, plaintext, nonce, aad):
    envelope = seal_envelope(KEY, plaintext, nonce, algorithm, aad=aad)
    assert envelope.size == len(envelope.to_bytes())
