"""The windowed checkpoint open: equal to the whole-buffer open, and no
page written before the inner digest verifies."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.authenc import (
    CIPHER_NAMES,
    OPEN_WINDOW,
    Envelope,
    seal_buffer,
    sealing_buffer,
)
from repro.crypto.backend import use_backend
from repro.crypto.keys import SymmetricKey
from repro.errors import IntegrityError, ReproError
from repro.migration.checkpoint import (
    _CKPT_MAGIC,
    CHECKPOINT_AAD,
    EnclaveCheckpoint,
    OpenedCheckpoint,
    TcsState,
    open_checkpoint,
    seal_checkpoint,
)
from repro.migration.orchestrator import MigrationOrchestrator
from repro.sdk import control
from repro.serde import SerdeError, pack
from repro.sgx.structures import PAGE_SIZE, Permissions
from tests.migration.test_untrusted_stack import migrate_until_restore

KEY = SymmetricKey(b"\x07" * 32, "k")
NONCE = b"window-nonce-016"


def _checkpoint(sizes) -> EnclaveCheckpoint:
    return EnclaveCheckpoint(
        image_name="img",
        code_id="code-v1",
        mrenclave=b"\xaa" * 32,
        sequence=4,
        pages={0x1000 * (i + 1): bytes([i + 1]) * n for i, n in enumerate(sizes)},
        tcs_states=[TcsState(0, 0, 0), TcsState(1, 2, 1)],
        skipped_pages=[0x9000],
        storage_version=3,
    )


def _sealed(parts, algorithm, corrupt_digest=False) -> Envelope:
    inner = sealing_buffer(parts)
    if corrupt_digest:
        inner[0] ^= 1
    return seal_buffer(KEY, inner, NONCE, algorithm, aad=CHECKPOINT_AAD)


def _outcome(open_fn):
    """(header, pages) of an open, or the refusal it raised."""
    try:
        checkpoint, pages = open_fn()
    except (ReproError, SerdeError) as exc:
        return type(exc), str(exc)
    return dataclasses.replace(checkpoint, pages={}), pages


def _whole(envelope):
    checkpoint = open_checkpoint(KEY, envelope)
    return checkpoint, {v: bytes(p) for v, p in checkpoint.pages.items()}


def _windowed(envelope, window):
    opened = OpenedCheckpoint(KEY, envelope, window)
    pages = {}
    for vaddrs, window_pages in opened.windows():
        pages.update((v, bytes(window_pages[k])) for k, v in enumerate(vaddrs))
    return opened.checkpoint, pages


def _cases(algorithm):
    """Sealed checkpoints, good and refused, as (name, envelope)."""
    good = _checkpoint([PAGE_SIZE] * 6)
    odd = _checkpoint([100, PAGE_SIZE, 5000, 0])
    parts = good.parts()
    header = pack({"page_index": [[0x1000, PAGE_SIZE]]})
    flipped = bytearray(_sealed(parts, algorithm).to_bytes())
    flipped[-40] ^= 1
    return [
        ("pages", seal_checkpoint(good, KEY, NONCE, algorithm)),
        ("odd sizes", seal_checkpoint(odd, KEY, NONCE, algorithm)),
        ("mac", Envelope.from_bytes(bytes(flipped))),
        ("inner digest", _sealed(parts, algorithm, corrupt_digest=True)),
        ("magic", _sealed([b"ECKPT9\x00", *parts[1:]], algorithm)),
        ("header", _sealed([_CKPT_MAGIC, (5).to_bytes(4, "big"), b"\xff" * 5], algorithm)),
        ("truncated", _sealed([_CKPT_MAGIC, len(header).to_bytes(4, "big"), header, b"x"], algorithm)),
        ("trailing", _sealed([*parts, b"extra"], algorithm)),
    ]


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("algorithm", CIPHER_NAMES)
@pytest.mark.parametrize("window", [1001, 3 * PAGE_SIZE + 5, OPEN_WINDOW])
def test_windowed_open_equals_the_whole_open(backend, algorithm, window):
    """Pages, header and refusals; windows that split a page and a cipher
    block, and one larger than the whole checkpoint."""
    with use_backend(backend):
        for name, envelope in _cases(algorithm):
            whole = _outcome(lambda: _whole(envelope))
            assert _outcome(lambda: _windowed(envelope, window)) == whole, name


def test_a_valid_mac_over_a_wrong_inner_digest_writes_no_page(testbed):
    """The restore verifies the inner digest before its first page write."""
    orch = MigrationOrchestrator(testbed)
    app, target, delivered = migrate_until_restore(testbed, orch, "inner-digest")
    kmigrate = target.library.control_call(
        lambda rt: SymmetricKey(rt.load_obj("__channel__")["kmigrate"], "k")
    )
    checkpoint = open_checkpoint(kmigrate, Envelope.from_bytes(delivered))
    inner = sealing_buffer(checkpoint.parts())
    inner[0] ^= 1
    forged = seal_buffer(kmigrate, inner, NONCE, "aes-ni", aad=CHECKPOINT_AAD).to_bytes()
    writable = [
        vaddr
        for vaddr in checkpoint.pages
        if vaddr in {p.vaddr for p in app.image.pages if Permissions.W in p.sec_info.permissions}
    ]

    def memory(rt):
        return [rt.read(vaddr, PAGE_SIZE) for vaddr in writable]

    virgin = target.library.control_call(memory)
    assert virgin != [bytes(checkpoint.pages[vaddr]) for vaddr in writable]
    with pytest.raises(IntegrityError, match="inner checkpoint hash mismatch"):
        target.library.control_call(control.target_restore_memory, forged)
    assert target.library.control_call(memory) == virgin
