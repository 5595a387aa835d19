"""Security-property tests: every attack of §IV-A / §V-A / §VII-A.

These are the tests behind the DESIGN.md property table (P-1 … P-6).
"""

import pytest

from repro.attacks.consistency import run_consistency_scenario
from repro.attacks.fork import run_fork_scenario
from repro.attacks.replay import run_replay_scenario
from repro.attacks.rollback import run_rollback_scenario
from repro.attacks.tamper import run_tamper_scenario


class TestConsistencyAttack:
    """P-3: state consistency (§IV-A, Figure 3)."""

    def test_naive_checkpointer_is_broken_by_lying_scheduler(self):
        outcome = run_consistency_scenario("naive", malicious_scheduler=True)
        assert not outcome.consistent
        assert outcome.restored_sum != outcome.expected_sum

    def test_two_phase_survives_lying_scheduler(self):
        outcome = run_consistency_scenario("two-phase", malicious_scheduler=True)
        assert outcome.consistent

    def test_two_phase_survives_honest_scheduler_too(self):
        outcome = run_consistency_scenario("two-phase", malicious_scheduler=False)
        assert outcome.consistent

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_attack_reproducible_across_seeds(self, seed):
        outcome = run_consistency_scenario("naive", malicious_scheduler=True, seed=seed)
        assert not outcome.consistent

    def test_unknown_checkpointer_rejected(self):
        with pytest.raises(ValueError):
            run_consistency_scenario("magic")


class TestForkAttack:
    """P-5: single instance (§V-A, Figure 6)."""

    def test_secure_protocol_blocks_every_avenue(self):
        outcome = run_fork_scenario("secure")
        assert not outcome.eve_got_mail
        assert "source-resume-spins-forever" in outcome.blocked_steps
        assert "second-checkpoint-refused" in outcome.blocked_steps
        assert "second-channel-refused" in outcome.blocked_steps

    def test_snapshot_fork_is_semantically_possible_but_audited(self):
        outcome = run_fork_scenario("forked")
        assert outcome.eve_got_mail  # the Figure 6 behaviour, verbatim
        assert outcome.audit_entries >= 2  # ...and fully on the record


class TestRollbackAttack:
    """P-4: state continuity (§V-A)."""

    def test_migration_cannot_reset_the_lock(self):
        outcome = run_rollback_scenario("migration")
        assert outcome.attempts_made == 3
        assert outcome.locked_after
        assert outcome.rollback_blocked

    def test_snapshot_rollback_is_audited_and_flagged(self):
        outcome = run_rollback_scenario("snapshot")
        assert outcome.extra_attempts_via_snapshots > 0
        assert outcome.resumes_logged == 2
        assert outcome.flagged_rollbacks >= 1


class TestReplayAttack:
    """§VII-A: 'Resending all the network packets ... cannot launch a
    replay attack successfully.'"""

    def test_all_replays_blocked(self):
        outcome = run_replay_scenario()
        assert outcome.all_blocked
        assert outcome.key_replay_error == "ChannelError"
        assert outcome.answer_replay_error == "SignatureError"
        assert outcome.checkpoint_replay_error


class TestTamperAttack:
    """P-2: state integrity."""

    def test_bit_flip_detected(self):
        assert run_tamper_scenario("flip").detected

    def test_truncation_detected(self):
        assert run_tamper_scenario("truncate").detected

    def test_control_case_untampered_succeeds(self):
        outcome = run_tamper_scenario("substitute")
        assert not outcome.detected  # delivery unchanged: must succeed

    def test_rewritten_chunk_is_refused_by_the_envelope_mac(self):
        """A chunk whose payload and frame digest were both rewritten
        passes the reassembler; only the envelope MAC refuses it, so the
        transfer must not hand on the sender's wire in its place."""
        outcome = run_tamper_scenario("chunk")
        assert outcome.detected
        assert outcome.error == "IntegrityError"
        assert not outcome.target_exists
