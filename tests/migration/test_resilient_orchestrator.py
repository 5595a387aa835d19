"""Unit tests for the degraded-mode machinery around the orchestrator.

The matrix (tests/integration/test_fault_matrix.py) proves the end-to-end
obligation; these tests pin the individual mechanisms: bounded step
waits, the chunked resumable transfer, retransmission caps, the abort /
restart contract, the stats counters, and the agent's escrow retries.
"""

from __future__ import annotations

import pytest

from repro.durability import wal
from repro.durability.journal import Journal
from repro.durability.recovery import MigrationRecovery
from repro.errors import (
    ChunkError,
    IntegrityError,
    MigrationAborted,
    PartyCrash,
    SelfDestroyed,
    StepTimeout,
)
from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.migration.agent import AgentService, build_agent_image
from repro.migration.checkpoint import ChunkReassembler, chunk_blob
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MAX_TRANSFER_ROUNDS,
    MigrationOrchestrator,
    RetryPolicy,
)
from repro.migration.testbed import build_testbed
from repro.sdk import control
from repro.sgx import instructions as isa

from tests.conftest import build_counter_app


class TestChunking:
    def test_roundtrip_any_order(self):
        blob = bytes(range(256)) * 37
        frames = chunk_blob(blob, chunk_bytes=512)
        r = ChunkReassembler()
        for frame in reversed(frames):
            assert r.accept(frame)
        assert r.complete and r.assemble() == blob

    def test_empty_blob_is_one_frame(self):
        frames = chunk_blob(b"", chunk_bytes=512)
        assert len(frames) == 1
        r = ChunkReassembler()
        r.accept(frames[0])
        assert r.assemble() == b""

    def test_duplicates_are_idempotent(self):
        frames = chunk_blob(b"x" * 2000, chunk_bytes=512)
        r = ChunkReassembler()
        for frame in frames + frames:
            r.accept(frame)
        assert r.duplicates_seen == len(frames)
        assert r.assemble() == b"x" * 2000

    def test_corrupt_frame_raises_and_names_the_gap(self):
        frames = chunk_blob(b"y" * 2000, chunk_bytes=512)
        r = ChunkReassembler()
        r.accept(frames[0])
        bad = bytearray(frames[1])
        bad[-10] ^= 0x40
        with pytest.raises(ChunkError):
            r.accept(bytes(bad))
        assert 1 in r.missing() and 0 not in r.missing()

    def test_geometry_disagreement_rejected(self):
        frames_a = chunk_blob(b"a" * 2000, chunk_bytes=512)
        frames_b = chunk_blob(b"b" * 4000, chunk_bytes=512)
        r = ChunkReassembler()
        r.accept(frames_a[0])
        with pytest.raises(ChunkError):
            r.accept(frames_b[1])

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ChunkError):
            chunk_blob(b"zz", chunk_bytes=0)


class TestStepTimeout:
    def test_wedged_worker_times_out_instead_of_hanging(self, testbed):
        """The satellite fix: a worker that never reaches the quiescent
        point must surface as StepTimeout, not hang ``run_until``."""
        app = build_counter_app(testbed, tag="wedged")
        worker = app.image.worker_tcs(0)
        # Enter a worker ecall and never leave: its local flag stays
        # BUSY, so the control thread can never finish checkpointing.
        session = isa.eenter(app.machine.cpu, app.library.hw(), worker.vaddr)
        rt = app.library._runtime(session)
        assert rt.entry_stub(worker.index) == "proceed"

        orch = MigrationOrchestrator(testbed, retry=RetryPolicy(max_step_rounds=2_000))
        with pytest.raises(StepTimeout) as excinfo:
            orch.checkpoint_enclave(app)
        assert excinfo.value.step == "checkpoint"
        assert orch.stats.step_timeouts == 1
        assert testbed.trace.tally("migration")["step_timeout"] == 1

    def test_default_budget_matches_seed_behaviour(self, testbed):
        """With the default policy an ordinary checkpoint completes well
        inside the budget — the bound changes nothing on the happy path."""
        app = build_counter_app(testbed, tag="budget")
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        assert app.library.last_checkpoint is not None


class TestKeyHandoffExhaustion:
    def test_key_lost_forever_aborts_with_zero_instances(self, testbed):
        """Every kmigrate delivery fails: released key is unrecoverable,
        so the protocol must end with *no* live instance (P-5 beats
        availability) rather than retrying the whole migration."""
        plan = FaultPlan(seed=3)
        for nth in range(1, MAX_TRANSFER_ROUNDS + 1):
            plan.drop("kmigrate", nth=nth)
        app = build_counter_app(testbed, tag="keyloss")
        orch = MigrationOrchestrator(
            testbed, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(MigrationAborted):
            orch.migrate_enclave(app)
        # Post-release failure is terminal: no whole-protocol retry.
        assert orch.stats.attempts == 1
        assert orch.stats.key_retransmits == MAX_TRANSFER_ROUNDS - 1
        # Source self-destroyed, target torn down: zero live instances.
        with pytest.raises(SelfDestroyed):
            app.library.control_call(control.source_release_key)
        assert not testbed.target_os.driver.live_enclave_ids()


class TestAbortAndRestart:
    def test_aborted_migration_can_be_restarted_from_scratch(self, testbed):
        """A migration that exhausts its retries pre-release leaves the
        source serving; a later migration renegotiates everything —
        fresh channel, fresh K_migrate — and succeeds."""
        app = build_counter_app(testbed, tag="restart")
        app.ecall_once(0, "incr", 21)
        # A partition far longer than the whole retry budget.
        plan = FaultPlan(seed=4).partition(10_000_000_000)
        orch = MigrationOrchestrator(
            testbed, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        with pytest.raises(MigrationAborted):
            orch.migrate_enclave(app)
        assert orch.stats.aborts == 1
        # Key never left the enclave: the source still serves.
        assert "kmigrate" not in [r.label for r in testbed.network.log]
        assert app.ecall_once(0, "read") == 21

        # Infrastructure fixed (injector removed): a fresh attempt works
        # end to end, renegotiating the attested channel from scratch.
        orch.faults.detach()
        result = MigrationOrchestrator(testbed, retry=FAULT_TOLERANT_RETRY).migrate_enclave(app)
        assert result.target_app.ecall_once(0, "read") == 21
        assert [r.label for r in testbed.network.log].count("kmigrate") == 1

    def test_spent_source_never_retried(self, testbed):
        """Once the source is SPENT, a retry loop must not resurrect it:
        a second migrate_enclave aborts immediately with SelfDestroyed
        semantics instead of renegotiating."""
        app = build_counter_app(testbed, tag="spent")
        orch = MigrationOrchestrator(testbed, retry=FAULT_TOLERANT_RETRY)
        orch.migrate_enclave(app)
        orch2 = MigrationOrchestrator(testbed, retry=FAULT_TOLERANT_RETRY)
        with pytest.raises(MigrationAborted):
            orch2.migrate_enclave(app)
        assert orch2.stats.attempts == 1  # no blind retry of a dead source


class TestStatsAndTrace:
    def test_retry_events_hit_the_trace(self, testbed):
        plan = FaultPlan(seed=5).drop("channel-answer")
        app = build_counter_app(testbed, tag="trace")
        orch = MigrationOrchestrator(
            testbed, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        result = orch.migrate_enclave(app)
        assert result.stats.retries == 1
        tally = testbed.trace.tally("migration")
        assert tally["retry"] == 1
        assert testbed.trace.tally("fault")["drop"] == 1

    def test_result_carries_stats_and_attempts(self, testbed):
        app = build_counter_app(testbed, tag="stats")
        result = MigrationOrchestrator(testbed, retry=FAULT_TOLERANT_RETRY).migrate_enclave(app)
        assert result.attempts == 1
        assert result.stats.as_dict()["retries"] == 0


class TestAgentRetries:
    def _make(self, seed, plan, retry):
        tb = build_testbed(seed=seed)
        agent_built = build_agent_image(tb.builder)
        tb.owner.set_agent_image(agent_built)
        app = build_counter_app(tb, tag=f"agentretry{seed}")
        app.ecall_once(0, "incr", 8)
        agent = AgentService(tb, agent_built, retry=retry)
        if plan is not None:
            FaultInjector(plan).attach(tb)
        return tb, app, agent

    def test_escrow_survives_dropped_message(self):
        plan = FaultPlan(seed=6).drop("agent-escrow")
        tb, app, agent = self._make(601, plan, FAULT_TOLERANT_RETRY)
        MigrationOrchestrator(tb).checkpoint_enclave(app)
        agent.escrow_from(app)
        assert tb.trace.tally("migration")["agent_resend"] == 1
        # The escrowed key still releases to the legitimate target only.
        target = MigrationOrchestrator(tb).build_virgin_target(app)
        agent.release_to(target)

    def test_default_policy_surfaces_fault_unchanged(self):
        from repro.errors import LinkTimeout

        plan = FaultPlan(seed=7).drop("agent-escrow")
        tb, app, agent = self._make(602, plan, None)
        MigrationOrchestrator(tb).checkpoint_enclave(app)
        with pytest.raises(LinkTimeout):
            agent.escrow_from(app)


def _journal_payload(tb, name: str, party: str, kind: str) -> dict:
    records = Journal(tb.durable, name, party).records()
    return next(r.payload for r in records if r.kind == kind)


def _wal_transferred(tb, app) -> str:
    name = wal.orchestrator_journal_name(app.image.name, getattr(tb, "wal_epoch", 0))
    return _journal_payload(tb, name, wal.PARTY_ORCHESTRATOR, wal.WAL_TRANSFERRED)["blob"]


def _source_checkpoint_blob(tb, app) -> str:
    epoch = getattr(tb.source, "journal_epoch", 0)
    name = wal.enclave_journal_name(tb.source.name, app.image.name, epoch)
    return _journal_payload(tb, name, wal.PARTY_SOURCE, wal.REC_CHECKPOINT)["envelope"]


class TestCheckpointBlobOnce:
    """The sealed checkpoint is stored once: the orchestrator names the
    source's blob for the bytes it delivered unchanged, and stores only
    bytes the wire changed, under their own digest."""

    def test_clean_chunked_run_puts_no_second_blob(self, monkeypatch):
        tb = build_testbed(seed=3)
        app = build_counter_app(tb)
        puts = []
        put_blob = tb.durable.put_blob

        def counted_put(data):
            puts.append(put_blob(data))
            return puts[-1]

        monkeypatch.setattr(tb.durable, "put_blob", counted_put)
        MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY).migrate_enclave(app)
        source_blob = _source_checkpoint_blob(tb, app)
        assert puts == [source_blob]  # the source's put, and no other
        assert _wal_transferred(tb, app) == source_blob

    def test_corrupted_delivery_is_stored_under_its_own_digest(self):
        tb = build_testbed(seed=3)
        app = build_counter_app(tb)
        orch = MigrationOrchestrator(tb, faults=FaultInjector(parse_fault_spec("corrupt:checkpoint")))
        with pytest.raises(MigrationAborted) as aborted:
            orch.migrate_enclave(app)
        assert isinstance(aborted.value.__cause__, IntegrityError)  # the target refused it
        transferred, source_blob = _wal_transferred(tb, app), _source_checkpoint_blob(tb, app)
        assert transferred != source_blob
        delivered = tb.durable.blob(transferred)  # re-hashed on read
        assert delivered == orch.run.delivered != tb.durable.blob(source_blob)

    def test_recovery_redelivers_from_the_named_blob(self, monkeypatch):
        tb = build_testbed(seed=3)
        app = build_counter_app(tb)
        # Record 6 of the orchestrator's WAL is `release`, past `transferred`.
        plan = FaultPlan(seed=3).crash_at_record(wal.PARTY_ORCHESTRATOR, 6)
        orch = MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan))
        with pytest.raises(PartyCrash):
            orch.migrate_enclave(app)
        read = []
        blob = tb.durable.blob

        def counted_read(digest):
            read.append(digest)
            return blob(digest)

        monkeypatch.setattr(tb.durable, "blob", counted_read)
        report = MigrationRecovery(tb, app, orchestrator=orch).recover()
        assert report.outcome == "completed" and report.live_instances == 1
        assert read == [_wal_transferred(tb, app)] == [_source_checkpoint_blob(tb, app)]
