"""The adversarial fault matrix: every fault primitive at every step.

Each case runs one enclave migration under a single injected
infrastructure fault and asserts the protocol's obligation from the
paper's threat model: the run either completes (after retries) or aborts
cleanly with :class:`MigrationAborted` — never hangs, never forks, never
runs a self-destroyed source — and afterwards

* at most one enclave lineage is live (exactly one on completion);
* the source has self-destroyed if and only if K_migrate was released
  (a crashed source machine counts as gone, not as self-destroyed).

The matrix seed is taken from the ``FAULT_SEED`` environment variable so
the CI ``faults`` job can replay the whole matrix under several fixed
seeds without code changes.
"""

from __future__ import annotations

import os

import pytest

from repro.attacks.wiretap import Wiretap
from repro.errors import MigrationAborted, SelfDestroyed
from repro.faults import (
    MESSAGE_FAULT_KINDS,
    PROTOCOL_STEPS,
    STEP_RESTORE,
    FaultInjector,
    FaultPlan,
    MessageFault,
)
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MigrationOrchestrator,
)
from repro.migration.testbed import build_testbed
from repro.sdk import control

from tests.conftest import build_counter_app

FAULT_SEED = int(os.environ.get("FAULT_SEED", "1"))

#: Every label the protocol puts on the wire, in flow order.  The
#: chunked checkpoint stream is the only multi-message label.
WIRE_LABELS = (
    "channel-request",
    "ias-quote",
    "channel-answer",
    "checkpoint-chunk",
    "kmigrate",
)

COUNTER_BEFORE = 5


def _run(plan):
    """One migration under ``plan``; returns (tb, app, orch, result-or-exc)."""
    tb = build_testbed(seed=1000 + FAULT_SEED)
    app = build_counter_app(tb, tag="matrix")
    app.ecall_once(0, "incr", COUNTER_BEFORE)
    orch = MigrationOrchestrator(
        tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
    )
    try:
        return tb, app, orch, orch.migrate_enclave(app)
    except MigrationAborted as exc:
        return tb, app, orch, exc


def _key_released(tb) -> bool:
    return any(record.label == "kmigrate" for record in tb.network.log)


def _source_gone(app) -> bool:
    """Self-destroyed (SPENT) or its machine crashed: it will never run."""
    if app.library.enclave_id is None:
        return True  # crashed / destroyed
    with pytest.raises(SelfDestroyed):
        app.library.control_call(control.source_release_key)
    return True


def _check_invariants(tb, app, orch, outcome) -> None:
    target_live = tb.target_os.driver.live_enclave_ids()
    if isinstance(outcome, MigrationAborted):
        # Clean abort: no half-built target survives, and the source is
        # resurrectable only if the key never left it.
        assert not target_live, "aborted migration left a target enclave live"
        assert orch.stats.aborts >= 1
        if _key_released(tb):
            assert _source_gone(app)  # zero live instances, by design
    else:
        # Completion: exactly one live lineage, serving the right state.
        assert len(target_live) == 1
        assert outcome.target_app.ecall_once(0, "read") == COUNTER_BEFORE
        assert _key_released(tb)
        assert _source_gone(app)
        assert outcome.attempts >= 1


class TestMessageFaultMatrix:
    @pytest.mark.faults
    @pytest.mark.parametrize("kind", MESSAGE_FAULT_KINDS)
    @pytest.mark.parametrize("label", WIRE_LABELS)
    def test_single_message_fault(self, kind, label):
        plan = FaultPlan(seed=FAULT_SEED)
        plan.message_faults.append(MessageFault(kind, label))
        tb, app, orch, outcome = _run(plan)
        _check_invariants(tb, app, orch, outcome)
        # A single transient message fault is always healable: the plan
        # never touches the enclaves, so the protocol must complete.
        assert not isinstance(outcome, MigrationAborted), (
            f"{kind}:{label} should be survivable, got abort: {outcome}"
        )


class TestCrashMatrix:
    @pytest.mark.faults
    @pytest.mark.parametrize("step", PROTOCOL_STEPS)
    def test_source_crash(self, step):
        tb, app, orch, outcome = _run(FaultPlan(seed=FAULT_SEED).crash("source", step))
        _check_invariants(tb, app, orch, outcome)
        if step == STEP_RESTORE:
            # By restore time the key and checkpoint live on the target:
            # the source machine dying costs nothing.
            assert not isinstance(outcome, MigrationAborted)
        else:
            # Before the handoff completes, losing the source machine
            # loses the only instance: abort, never a hang or a fork.
            assert isinstance(outcome, MigrationAborted)

    @pytest.mark.faults
    @pytest.mark.parametrize("step", PROTOCOL_STEPS)
    def test_target_crash(self, step):
        tb, app, orch, outcome = _run(FaultPlan(seed=FAULT_SEED).crash("target", step))
        _check_invariants(tb, app, orch, outcome)
        if step == STEP_RESTORE:
            # Key released, then the machine holding it died: the paper's
            # single-instance guarantee beats availability.
            assert isinstance(outcome, MigrationAborted)
            assert _source_gone(app)
        else:
            # Pre-release target crashes are survivable: cancel, rebuild
            # a fresh virgin target, renegotiate everything.
            assert not isinstance(outcome, MigrationAborted)
            assert orch.stats.retries >= 1


class TestPartitionMatrix:
    @pytest.mark.faults
    @pytest.mark.parametrize("label", (None,) + WIRE_LABELS)
    def test_partition_heals(self, label):
        plan = FaultPlan(seed=FAULT_SEED).partition(20_000_000, label=label)
        tb, app, orch, outcome = _run(plan)
        _check_invariants(tb, app, orch, outcome)
        # 20 ms of virtual downtime is inside the retry budget.
        assert not isinstance(outcome, MigrationAborted)


class TestNoFaultRegression:
    @staticmethod
    def _reset_global_counters():
        """Pin the process-global CPU id counter so two testbeds built in
        the same pytest process draw identical rdrand fork labels."""
        import itertools

        from repro.sgx.cpu import SgxCpu

        SgxCpu._ids = itertools.count(1)

    def test_resilient_path_matches_seed_bytes_modulo_framing(self):
        """With zero faults, retries enabled, the resilient orchestrator
        puts the *same protocol bytes* on the wire as the seed happy
        path — the chunk stream framing is the only difference."""
        self._reset_global_counters()
        tb_seed = build_testbed(seed=4242)
        tap_seed = Wiretap.install(tb_seed.network)
        app_seed = build_counter_app(tb_seed, tag="regress")
        app_seed.ecall_once(0, "incr", 3)
        MigrationOrchestrator(tb_seed).migrate_enclave(app_seed)

        self._reset_global_counters()
        tb_res = build_testbed(seed=4242)
        tap_res = Wiretap.install(tb_res.network)
        app_res = build_counter_app(tb_res, tag="regress")
        app_res.ecall_once(0, "incr", 3)
        result = MigrationOrchestrator(
            tb_res, retry=FAULT_TOLERANT_RETRY
        ).migrate_enclave(app_res)
        assert result.attempts == 1 and result.stats.retries == 0

        # Lockstep messages are byte-identical.
        for label in ("channel-request", "ias-quote", "channel-answer", "kmigrate"):
            assert tap_seed.captured(label) == tap_res.captured(label)

        # The chunk stream carries exactly the seed checkpoint envelope.
        from repro.migration.checkpoint import ChunkReassembler

        frames = tap_res.captured("checkpoint-chunk")
        assert len(frames) > 1  # it actually chunked
        reassembler = ChunkReassembler()
        for frame in frames:
            reassembler.accept(frame)
        (seed_blob,) = tap_seed.captured("checkpoint")
        assert reassembler.assemble() == seed_blob

    def test_no_fault_run_reports_clean_stats(self):
        tb, app, orch, outcome = _run(FaultPlan(seed=FAULT_SEED))
        _check_invariants(tb, app, orch, outcome)
        assert outcome.stats.retries == 0
        assert outcome.stats.aborts == 0
        assert tb.trace.tally("fault") == {}
