"""Crash recovery from the write-ahead journals.

The full crash-point matrix lives in the ``sweep``-marked integration
test; here each recovery *class* is pinned by one representative crash
point, plus the refusal paths (rollback) and the combined-fault cases
the issue calls out (partition + crash, agent exactly-once).
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.durability import wal
from repro.durability.recovery import MigrationRecovery
from repro.durability.sweep import (
    COUNTER_START,
    build_sweep_app,
    run_agent_crash_point,
    run_crash_point,
    sweep_pairs,
)
from repro.durability.journal import Journal
from repro.errors import (
    JournalCorrupt,
    JournalRolledBack,
    KeyReused,
    MigrationAborted,
    MigrationError,
    PartyCrash,
    RecoveryError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.migration.testbed import build_testbed
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.vm import VmMigrationManager

SEED = int(os.environ.get("FAULT_SEED", "5"))


class TestRecoveryMatrix:
    """One representative crash point per recovery class."""

    @pytest.mark.parametrize(
        ("party", "record", "outcome", "live"),
        [
            # Source dies right after sealing its checkpoint: rebuild it
            # from its own journal record.
            ("source", 1, "recovered:source-restored", 1),
            # Source journaled `released` but the sealed key never reached
            # the orchestrator's log: K_migrate is gone, SPENT stays SPENT.
            ("source", 3, "recovered:aborted", 0),
            # Target dies after journaling the installed key: a rebuilt
            # same-measurement enclave unseals it and finishes.
            ("target", 2, "recovered:completed", 1),
            # Orchestrator dies mid-negotiation: roll back, resume source.
            ("orchestrator", 2, "recovered:resumed-source", 1),
            # Orchestrator dies after the key was delivered: recovery
            # re-sends the sealed blob — target_receive_key is idempotent.
            ("orchestrator", 7, "recovered:completed", 1),
        ],
    )
    def test_crash_point(self, party, record, outcome, live):
        result = run_crash_point(party, record, seed=71)
        assert result.outcome == outcome
        assert result.live_instances == live
        assert result.safe, result

    def test_recovered_target_keeps_running(self):
        """The finalized instance is a working enclave, not a husk."""
        tb = build_testbed(seed=72)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=72).crash_at_record(wal.PARTY_TARGET, 2)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        report = MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert report.outcome == "completed"
        target = report.target_app
        assert target.ecall_once(0, "incr", 3) == COUNTER_START + 3
        assert target.ecall_once(0, "read") == COUNTER_START + 3
        tb.monitor.assert_clean()

    def test_recovery_is_idempotent(self):
        """Running recovery twice converges on the same safe answer."""
        tb = build_testbed(seed=73)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=73).crash_at_record(wal.PARTY_ORCHESTRATOR, 6)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        first = MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert first.outcome == "completed"
        second = MigrationRecovery(
            tb, app, orchestrator=orch, target_app=first.target_app
        ).recover()
        assert second.outcome == "already-complete"
        assert second.live_instances == 1
        tb.monitor.assert_clean()

    @pytest.mark.parametrize(("party", "record"), [("target", 2), ("source", 1)])
    def test_second_recovery_after_a_rebuild_does_not_fork(self, party, record):
        """A rebuilt instance is known to no journal, so recovering again
        rebuilds a second one — whose go-live must be refused: its key
        already went live once."""
        tb = build_testbed(seed=82)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=82).crash_at_record(party, record)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        assert MigrationRecovery(tb, app, orchestrator=orch).recover().live_instances == 1
        with pytest.raises(RecoveryError) as refused:
            MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert isinstance(refused.value.__cause__, KeyReused)
        assert tb.monitor.lineage_live_count(app) == 1
        tb.monitor.assert_clean()

    def test_cancelled_checkpoint_is_not_rebuilt(self):
        """§V-B: a cancelled migration's checkpoint is useless.  The source
        served on after the rollback; once it is gone, recovery must not
        bring it back at the cancelled checkpoint's state."""
        tb = build_testbed(seed=81)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=81).drop("channel-request")
        with pytest.raises(MigrationAborted):
            MigrationOrchestrator(tb, faults=FaultInjector(plan)).migrate_enclave(app)
        app.ecall_once(0, "incr", 5)
        app.destroy()
        with pytest.raises(RecoveryError) as refused:
            MigrationRecovery(tb, app).recover()
        assert isinstance(refused.value.__cause__, KeyReused)


@pytest.mark.sweep
class TestEveryCrashPair:
    def test_full_pair_matrix_ends_safe(self):
        """Every (first crash, second crash) pair — the second lands in the
        recovery the first forced, where it must take effect like any
        crash: each pair ends with one live instance or a clean abort."""
        results = sweep_pairs(seed=SEED, stride=1)
        assert len(results) == 15 * 15
        bad = [r for r in results if not r.safe]
        assert not bad, f"unsafe crash pairs: {[(r.pair, r.outcome) for r in bad]}"


def _drop_last_frame(store, name: str) -> None:
    """Truncate the last full frame off a journal's byte log."""
    raw = store.log(name)
    offset, last = 0, 0
    while offset < len(raw):
        last = offset
        length, _crc = struct.unpack_from("<II", raw, offset)
        offset += 8 + length
    del raw[last:]


class TestRollbackRefusal:
    def test_truncated_party_journal_refused(self):
        tb = build_testbed(seed=74)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=74).crash_at_record(wal.PARTY_TARGET, 2)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        # The adversary rolls the target's journal back past the
        # `key-installed` record to make recovery forget the key moved.
        _drop_last_frame(
            tb.durable, wal.enclave_journal_name("target", app.image.name)
        )
        with pytest.raises(JournalRolledBack):
            MigrationRecovery(tb, app, orchestrator=orch).recover()

    def test_truncated_wal_refused(self):
        tb = build_testbed(seed=75)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=75).crash_at_record(wal.PARTY_ORCHESTRATOR, 6)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        # Dropping the `release` record would resurrect the SPENT source.
        _drop_last_frame(
            tb.durable, wal.orchestrator_journal_name(app.image.name)
        )
        with pytest.raises(JournalRolledBack):
            MigrationRecovery(tb, app, orchestrator=orch).recover()


class TestBlobRefusal:
    """A checkpoint blob that is lost or altered on disk is refused when
    recovery resolves its digest, before any enclave is rebuilt."""

    @pytest.mark.parametrize(
        ("party", "record", "outcome"),
        [
            # Target died after `key-installed`: rebuild it from the
            # orchestrator's `transferred` blob.
            (wal.PARTY_TARGET, 2, "completed"),
            # Source died after `checkpoint`: rebuild it from its own
            # checkpoint blob.
            (wal.PARTY_SOURCE, 1, "source-restored"),
        ],
        ids=["target-transferred", "source-checkpoint"],
    )
    @pytest.mark.parametrize("damage", ["intact", "deleted", "flipped"])
    def test_rebuild_resolves_and_verifies_its_blob(
        self, party, record, outcome, damage
    ):
        tb = build_testbed(seed=76)
        app = build_sweep_app(tb)
        plan = FaultPlan(seed=76).crash_at_record(party, record)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        image = app.image.name
        if party == wal.PARTY_TARGET:
            name, kind, key = (
                wal.orchestrator_journal_name(image), wal.WAL_TRANSFERRED, "blob"
            )
        else:
            name, kind, key = (
                wal.enclave_journal_name("source", image), wal.REC_CHECKPOINT, "envelope"
            )
        digest = Journal(tb.durable, name, party).last(kind).payload[key]
        store = tb.durable
        if damage == "deleted":
            del store._blobs[digest]
        elif damage == "flipped":
            data = bytearray(store._blobs[digest])
            data[len(data) // 2] ^= 0x01
            store._blobs[digest] = bytes(data)
        enclaves = [set(m.cpu.enclaves) for m in (tb.source, tb.target)]
        recovery = MigrationRecovery(tb, app, orchestrator=orch)
        if damage == "intact":
            report = recovery.recover()
            assert (report.outcome, report.live_instances) == (outcome, 1)
            return
        with pytest.raises(JournalCorrupt, match=f"blob {digest[:16]}"):
            recovery.recover()
        assert [set(m.cpu.enclaves) for m in (tb.source, tb.target)] == enclaves


class TestPartitionPlusCrash:
    def test_crash_inside_a_partition_window(self):
        """A party crash while the link is partitioned: the retry machinery
        heals the wire, the journal machinery heals the crash — together
        in one plan, the run must still end with ≤ 1 live instance."""
        tb = build_testbed(seed=76)
        app = build_sweep_app(tb)
        plan = (
            FaultPlan(seed=76)
            .partition(duration_ns=12_000_000, label="kmigrate")
            .crash_at_record(wal.PARTY_TARGET, 2)
        )
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        report = MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert report.outcome == "completed"
        assert report.live_instances == 1
        assert report.target_app.ecall_once(0, "read") == COUNTER_START
        tb.monitor.assert_clean()

    def test_partition_then_source_crash(self):
        tb = build_testbed(seed=77)
        app = build_sweep_app(tb)
        plan = (
            FaultPlan(seed=77)
            .partition(duration_ns=8_000_000, label="channel-request")
            .crash_at_record(wal.PARTY_SOURCE, 2)
        )
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        report = MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert report.outcome == "source-restored"
        assert report.live_instances == 1
        tb.monitor.assert_clean()


class TestWholeVmRecovery:
    def test_says_why_a_released_key_cannot_be_redelivered(self):
        """A whole-VM run keeps no orchestrator journal.  The target dies
        right after going live, so the key is lost with it: recovery ends
        aborted with zero live, and says that the source did release
        K_migrate (it used to say the key was never exported)."""
        tb = build_testbed(seed=5)
        app = build_sweep_app(tb)
        FaultInjector(FaultPlan(seed=5).crash_at_record(wal.PARTY_TARGET, 3)).attach(tb)
        manager = VmMigrationManager(tb, [app])
        with pytest.raises(PartyCrash):
            manager.migrate()
        report = MigrationRecovery(tb, app, orchestrator=manager.orchestrator).recover()
        assert (report.outcome, report.live_instances) == ("aborted", 0)
        assert "released K_migrate" in report.detail
        assert "no orchestrator journal" in report.detail
        assert "never exported" not in report.detail
        assert report.journal_kinds[f"enclave/source/{app.image.name}"][-1] == "released"


class TestAgentExactlyOnce:
    def test_escrow_crash_recovers_and_completes(self):
        result = run_agent_crash_point(1, seed=78)
        assert result.outcome == "completed"
        assert result.live_instances == 1
        assert result.safe

    def test_release_crash_recovers_as_released(self):
        """Crash right after the `escrow-release` commit: the recovered
        agent refuses a second release — exactly-once beats availability,
        so the run ends as a clean abort with zero live instances."""
        result = run_agent_crash_point(2, seed=79)
        assert result.outcome == "aborted"
        assert result.live_instances == 0
        assert result.safe

    def test_duplicate_release_refused_after_agent_rebuild(self):
        from repro.migration.agent import AgentService, build_agent_image

        tb = build_testbed(seed=80)
        agent_built = build_agent_image(tb.builder)
        tb.owner.set_agent_image(agent_built)
        app = build_sweep_app(tb)
        agent = AgentService(tb, agent_built)
        orch = MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY)
        orch.checkpoint_enclave(app)
        agent.escrow_from(app)
        target = orch.build_virgin_target(app)
        agent.release_to(target)
        # The agent process dies *after* a successful release; its journal
        # ends with `escrow-release`, so the rebuilt table must refuse a
        # second hand-out to a fresh same-measurement instance.
        agent.app.library.destroy()
        assert agent.recover() == 1
        second = orch.build_virgin_target(app)
        with pytest.raises(MigrationError):
            agent.release_to(second)
