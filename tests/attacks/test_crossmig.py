"""The cross-migration attack matrix: every attack refused, typed.

Four adversaries aim at the sealed-storage handoff and three at the
journaled copies of K_migrate; the contract is zero silent successes —
each attack must end with a typed refusal naming what it tried, and the
legitimate instance's state must be intact afterwards.
"""

from __future__ import annotations

import pytest

from repro.attacks.crossmig import (
    CROSS_MIGRATION_ATTACKS,
    run_counter_fork_attack,
    run_cross_migration_matrix,
    run_handoff_replay_attack,
    run_key_fork_after_cancel,
    run_key_fork_after_go_live,
    run_key_fork_after_migration,
    run_stale_checkpoint_attack,
    run_storage_rollback_attack,
)

EXPECTED_REFUSALS = {
    "storage-rollback": "StorageRolledBack",
    "counter-fork": "StorageRetired",
    "stale-checkpoint": "StorageRolledBack",
    "handoff-replay": "HandoffReplayed",
    "key-fork-after-migration": "KeyReused",
    "key-fork-after-cancel": "KeyReused",
    "key-fork-after-go-live": "KeyReused",
}


class TestAttackMatrix:
    def test_every_attack_is_blocked_with_a_typed_refusal(self):
        outcomes = run_cross_migration_matrix(seed=40)
        assert {o.attack for o in outcomes} == set(CROSS_MIGRATION_ATTACKS)
        for outcome in outcomes:
            assert outcome.blocked, (
                f"{outcome.attack} succeeded silently: {outcome.detail}"
            )
            assert outcome.refusal == EXPECTED_REFUSALS[outcome.attack], outcome
            assert outcome.state_intact, (
                f"{outcome.attack} damaged legitimate state"
            )

    @pytest.mark.parametrize("seed", [40, 77])
    def test_matrix_holds_across_seeds(self, seed):
        outcomes = run_cross_migration_matrix(seed=seed)
        assert all(o.blocked for o in outcomes)


class TestIndividualAttacks:
    def test_storage_rollback_refused_after_round_trip(self):
        out = run_storage_rollback_attack(seed="unit/rollback")
        assert out.blocked and out.refusal == "StorageRolledBack"
        assert "stale" in out.detail or "rolled" in out.detail.lower()

    def test_counter_fork_via_resumed_source(self):
        """A fresh instance launched on the retired source host must be
        refused on both read *and* write, and the real lineage must
        survive a later hop back onto that host."""
        out = run_counter_fork_attack(seed="unit/fork")
        assert out.blocked and out.refusal == "StorageRetired"
        assert out.state_intact

    def test_stale_checkpoint_restore_refused(self):
        """An orchestrator that withholds the storage handoff delivers a
        checkpoint bound to a storage version the target never saw: the
        target refuses to go live."""
        out = run_stale_checkpoint_attack(seed="unit/stale")
        assert out.blocked and out.refusal == "StorageRolledBack"
        assert "storage version" in out.detail

    def test_handoff_replay_refused_inside_the_session(self):
        out = run_handoff_replay_attack(seed="unit/replay")
        assert out.blocked and out.refusal == "HandoffReplayed"
        assert out.state_intact


class TestJournalKeyForks:
    """A journaled K_migrate goes live once: the copies the source's
    ``checkpoint`` and the target's ``key-installed`` records keep are
    refused after the key was released, cancelled or used to go live —
    while the live instance keeps its 5 later increments."""

    @pytest.mark.parametrize(
        "attack",
        [run_key_fork_after_migration, run_key_fork_after_cancel, run_key_fork_after_go_live],
        ids=["after-migration", "after-cancel", "after-go-live"],
    )
    def test_second_go_live_refused(self, attack):
        out = attack(seed="unit/key-fork")
        assert out.blocked and out.refusal == "KeyReused", out
        assert out.state_intact
