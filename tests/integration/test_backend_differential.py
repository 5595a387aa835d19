"""Differential migration harness: both crypto backends, one protocol.

The fast backend is only admissible if it is *invisible*: a seeded
end-to-end enclave migration must put the same bytes on the wire, commit
the same journal records, and land the same enclave state regardless of
which backend did the cipher work.  This runs the full protocol once per
backend and compares everything an adversary, an auditor, or a crashed
party could ever observe.
"""

from __future__ import annotations

import itertools

from repro.attacks.wiretap import Wiretap
from repro.crypto.backend import BACKEND_NAMES, use_backend
from repro.crypto.hashes import sha256
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sgx.cpu import SgxCpu
from repro.sgx.structures import PAGE_SIZE, PageType

from tests.conftest import build_counter_app


def _reset_global_counters() -> None:
    """Pin the process-global CPU id counter so repeated testbeds draw
    identical rdrand fork labels (same trick as the fault-matrix
    regression test)."""
    SgxCpu._ids = itertools.count(1)


def _run_seeded_migration(backend_name: str) -> dict:
    """One full migration under ``backend_name``; everything observable."""
    with use_backend(backend_name):
        _reset_global_counters()
        tb = build_testbed(seed=9431)
        wiretap = Wiretap.install(tb.network)
        app = build_counter_app(tb, tag="differential")
        app.ecall_once(0, "incr", 41)
        result = MigrationOrchestrator(tb).migrate_enclave(app)
        counter = result.target_app.ecall_once(0, "read")

        # Final enclave state: every valid EPC page the migrated enclave
        # owns on the target CPU, in vaddr order.
        epc = tb.target.cpu.epc
        eid = result.target_app.library.hw().eid
        pages = sorted(
            (epc.vaddr(i), i) for i in epc.pages_of(eid) if epc.page_type(i) is PageType.REG
        )
        assert pages
        state = sha256(
            b"".join(vaddr.to_bytes(8, "big") + epc.read(i, 0, PAGE_SIZE) for vaddr, i in pages)
        )
        return {
            "wire": wiretap.sends,
            "journals": {
                name: bytes(tb.durable.log(name)) for name in tb.durable.names()
            },
            "counter": counter,
            "state_digest": state,
            "clock_ns": tb.clock.now_ns,
        }


def test_seeded_migration_is_backend_invariant():
    runs = {name: _run_seeded_migration(name) for name in BACKEND_NAMES}
    reference, fast = runs["reference"], runs["fast"]

    # Same wire traffic: labels in the same order, payloads byte-identical.
    assert reference["wire"]
    assert [l for l, _ in reference["wire"]] == [l for l, _ in fast["wire"]]
    for (label, ref_bytes), (_, fast_bytes) in zip(reference["wire"], fast["wire"]):
        assert ref_bytes == fast_bytes, f"wire divergence on {label!r}"

    # Same journals: the same set of logs with byte-identical contents.
    assert reference["journals"].keys() == fast["journals"].keys()
    for name in reference["journals"]:
        assert reference["journals"][name] == fast["journals"][name], (
            f"journal divergence in {name!r}"
        )

    # Same outcome: application state and raw enclave memory agree, and
    # so does virtual time (the backend is a wall-clock concern only).
    assert reference["counter"] == fast["counter"] == 41
    assert reference["state_digest"] == fast["state_digest"]
    assert reference["clock_ns"] == fast["clock_ns"]


def test_sealed_checkpoint_travels_between_backends():
    """Seal under one backend on the source, open under the other on the
    target: a mixed fleet (old binary on one host) must interoperate."""
    from repro.crypto.keys import SymmetricKey
    from repro.migration.checkpoint import (
        EnclaveCheckpoint,
        open_checkpoint,
        seal_checkpoint,
    )

    ckpt = EnclaveCheckpoint(
        image_name="mixed-fleet",
        code_id="code",
        mrenclave=b"\x11" * 32,
        sequence=3,
        pages={0x1000: b"\xaa" * 4096, 0x3000: b"\xbb" * 100},
        skipped_pages=[0x2000],
    )
    key = SymmetricKey(b"m" * 32, "kmigrate")
    for sealer, opener in (("reference", "fast"), ("fast", "reference")):
        with use_backend(sealer):
            envelope = seal_checkpoint(ckpt, key, b"n" * 16, "aes-ni")
        with use_backend(opener):
            reopened = open_checkpoint(key, envelope)
        assert reopened.pages == ckpt.pages
        assert reopened.skipped_pages == ckpt.skipped_pages
        assert reopened.sequence == ckpt.sequence
