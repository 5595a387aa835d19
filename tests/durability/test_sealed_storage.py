"""Migratable sealed storage: freshness, handoff, and crash repair.

The namespace is one sealed table blob on untrusted disk guarded by
three monotonic counters; everything the counters contradict must be
refused with a typed :class:`~repro.errors.SealedStorageError` subclass.
The handoff tests drive the real migration protocol (the new
``handoff-storage`` step) and the repair tests crash a party between the
journaled import intent and the namespace commit.
"""

from __future__ import annotations

import pytest

from repro.durability import wal
from repro.durability.recovery import MigrationRecovery
from repro.errors import (
    PartyCrash,
    StorageRetired,
    StorageRolledBack,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MigrationOrchestrator,
)
from repro.sdk import control
from tests.conftest import build_counter_app


def _seed(app, upto=3):
    for n in range(1, upto + 1):
        app.library.control_call(control.storage_put, f"k{n}", f"v{n}")


class TestRuntimeFreshness:
    def test_put_get_roundtrip_advances_version(self, testbed):
        app = build_counter_app(testbed, tag="rt")
        assert app.library.control_call(control.storage_put, "a", 1) == 1
        assert app.library.control_call(control.storage_put, "b", 2) == 2
        assert app.library.control_call(control.storage_get, "a") == 1
        ns = wal.storage_namespace("source", app.image.name)
        assert testbed.durable.counter(ns) == 2

    def test_blob_on_disk_is_ciphertext(self, testbed):
        app = build_counter_app(testbed, tag="conf")
        app.library.control_call(control.storage_put, "pin", "0000-SECRET-PIN")
        ns = wal.storage_namespace("source", app.image.name)
        assert b"0000-SECRET-PIN" not in bytes(testbed.durable.log(ns))

    def test_stale_blob_restore_is_refused(self, testbed):
        app = build_counter_app(testbed, tag="stale")
        app.library.control_call(control.storage_put, "n", 1)
        ns = wal.storage_namespace("source", app.image.name)
        stale = bytes(testbed.durable.log(ns))
        app.library.control_call(control.storage_put, "n", 2)
        testbed.durable.set_log(ns, stale)
        with pytest.raises(StorageRolledBack, match="stale copy"):
            app.library.control_call(control.storage_get, "n")

    def test_deleted_blob_is_refused_not_served_empty(self, testbed):
        app = build_counter_app(testbed, tag="gone")
        app.library.control_call(control.storage_put, "n", 1)
        ns = wal.storage_namespace("source", app.image.name)
        testbed.durable.set_log(ns, b"")
        with pytest.raises(StorageRolledBack, match="sealed table is gone"):
            app.library.control_call(control.storage_get, "n")

    def test_torn_commit_self_heals(self, testbed):
        """Blob at version+1 with the counter one behind = the crash beat
        the counter advance; the MAC proves it is ours, so the next read
        finishes the commit instead of refusing."""
        app = build_counter_app(testbed, tag="torn")
        app.library.control_call(control.storage_put, "n", 1)

        def torn_put(rt):
            from repro.crypto.authenc import seal_envelope
            from repro.serde import pack

            entries, version = rt.storage_table()
            entries["n"] = 2
            envelope = seal_envelope(
                rt._storage_seal_key(),
                pack({"version": version + 1, "entries": entries}),
                rt.random_bytes(16),
                "aes",
                aad=b"sealed-storage",
            )
            # The blob hits disk; the "crash" lands before counter_advance.
            rt._journal.store.set_log(rt.storage_namespace(), envelope.to_bytes())

        app.library.control_call(torn_put)
        assert app.library.control_call(control.storage_get, "n") == 2
        ns = wal.storage_namespace("source", app.image.name)
        assert testbed.durable.counter(ns) == 2


class TestHandoffThroughMigration:
    def test_storage_follows_the_enclave(self, testbed):
        app = build_counter_app(testbed, tag="follow")
        _seed(app)
        result = MigrationOrchestrator(testbed).migrate_enclave(app)
        for n in range(1, 4):
            assert (
                result.target_app.library.control_call(control.storage_get, f"k{n}")
                == f"v{n}"
            )
        # The target's namespace took over at the source's version.
        target_ns = wal.storage_namespace("target", app.image.name)
        assert testbed.durable.counter(target_ns) == 3

    def test_source_namespace_is_tombstoned(self, testbed):
        app = build_counter_app(testbed, tag="tomb")
        _seed(app, upto=1)
        MigrationOrchestrator(testbed).migrate_enclave(app)
        source_ns = wal.storage_namespace("source", app.image.name)
        retired = testbed.durable.counter(wal.storage_retired_counter(source_ns))
        handoff = testbed.durable.counter(wal.storage_handoff_counter(source_ns))
        assert retired >= handoff and retired > 0

    def test_storageless_migration_moves_no_storage(self, testbed):
        """No namespace → the step negotiates away: no storage wire
        message, no storage WAL records, byte-identical protocol."""
        app = build_counter_app(testbed, tag="none")
        MigrationOrchestrator(testbed).migrate_enclave(app)
        assert "storage-handoff" not in {r.label for r in testbed.network.log}
        assert wal.storage_digests(testbed.durable) == {}

    def test_storage_digests_summarize_both_hosts(self, testbed):
        """The operator surface (``repro faults --storage`` etc.) shows a
        ciphertext digest plus all three counters per namespace, on both
        sides after a handoff."""
        app = build_counter_app(testbed, tag="digest")
        _seed(app, upto=2)
        before = wal.storage_digests(testbed.durable)
        source_ns = wal.storage_namespace("source", app.image.name)
        assert set(before) == {source_ns}
        assert before[source_ns]["version"] == 2
        MigrationOrchestrator(testbed).migrate_enclave(app)
        after = wal.storage_digests(testbed.durable)
        target_ns = wal.storage_namespace("target", app.image.name)
        assert set(after) == {source_ns, target_ns}
        assert after[target_ns]["version"] == 2
        # Re-sealed under the target's EGETKEY identity: same plaintext,
        # different ciphertext.
        assert after[target_ns]["sha256"] != before[source_ns]["sha256"]
        assert after[source_ns]["retired"] >= after[source_ns]["handoff"]


class TestCrashRepair:
    def test_target_crash_between_intent_and_commit(self, testbed):
        """Crash the target right as its ``storage-import`` record commits
        (intent journaled, namespace not yet rewritten): recovery must
        re-commit the table from the journal and finish the migration
        with the data intact."""
        app = build_counter_app(testbed, tag="repair")
        _seed(app)
        # Target records: 1 channel answer, 2 storage-import, 3 key, 4 live.
        plan = FaultPlan(seed=7).crash_at_record(wal.PARTY_TARGET, 2)
        orch = MigrationOrchestrator(
            testbed, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        try:
            result = orch.migrate_enclave(app)
            survivor = result.target_app
        except PartyCrash:
            report = MigrationRecovery(testbed, app, orchestrator=orch).recover()
            assert report.live_instances == 1
            survivor = report.target_app if report.target_app is not None else app
        assert survivor.library.control_call(control.storage_get, "k2") == "v2"

    def test_source_crash_after_export_keeps_source_store(self, testbed):
        """A source that crashes after exporting (pre-release) is restored
        with its namespace intact — the export was not the point of no
        return."""
        app = build_counter_app(testbed, tag="export-crash")
        _seed(app, upto=2)
        # Source records: 1 checkpoint, 2 channel-open, 3 storage-export.
        plan = FaultPlan(seed=8).crash_at_record(wal.PARTY_SOURCE, 3)
        orch = MigrationOrchestrator(
            testbed, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        report = MigrationRecovery(testbed, app, orchestrator=orch).recover()
        assert report.live_instances == 1
        survivor = report.target_app if report.target_app is not None else app
        assert survivor.library.control_call(control.storage_get, "k1") == "v1"
        assert survivor.library.control_call(control.storage_put, "k3", "v3") >= 3
