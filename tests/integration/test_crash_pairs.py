"""Crash pairs: a second crash lands inside the first recovery.

Single-point sweeps prove every crash window recovers; pairs prove the
*recovery path itself* is crash-safe.  A sampled subset also bounds
what recovery costs in virtual time.
"""

import pytest

from repro.durability import wal
from repro.durability.sweep import (
    COUNTER_START,
    MAX_RECOVERIES,
    reference_record_counts,
    run_crash_pair,
    sweep_pairs,
)
from repro.faults.plan import parse_fault_spec

SEED = 3


class TestPairSpecParsing:
    def test_pair_spec_parses_both_points(self):
        plan = parse_fault_spec("crash-record:source:2+target:3")
        points = [(f.party, f.at_record) for f in plan.record_crash_faults]
        assert points == [("source", 2), ("target", 3)]

    def test_single_point_spec_still_works(self):
        plan = parse_fault_spec("crash-record:orchestrator:5")
        assert [(f.party, f.at_record) for f in plan.record_crash_faults] == [
            ("orchestrator", 5)
        ]

    def test_triple_chain_spec(self):
        plan = parse_fault_spec("crash-record:source:1+source:2+source:3")
        assert len(plan.record_crash_faults) == 3

    def test_bad_pair_specs_rejected(self):
        for spec in (
            "crash-record:source:2+",
            "crash-record:+target:3",
            "crash-record:source:2+target",
            "crash-record:",
        ):
            with pytest.raises(ValueError):
                parse_fault_spec(spec)

    def test_pair_composes_with_other_faults(self):
        plan = parse_fault_spec("drop:kmigrate,crash-record:source:2+target:3")
        assert len(plan.message_faults) == 1
        assert len(plan.record_crash_faults) == 2


class TestCrashPairs:
    def test_double_crash_same_party_recovers_safely(self):
        result = run_crash_pair(("source", 2), ("source", 3), seed=SEED)
        assert result.pair == "source:2+source:3"
        assert result.recoveries == 2  # the second crash forced a re-drive
        assert result.recoveries <= MAX_RECOVERIES
        assert result.outcome.startswith("recovered:")
        assert result.safe
        assert result.recovery_ns > 0

    def test_cross_party_pair_recovers_safely(self):
        result = run_crash_pair(("orchestrator", 1), ("source", 1), seed=SEED)
        assert result.safe
        assert result.recoveries >= 1

    def test_target_crash_inside_recovery_takes_effect(self):
        """The target dies at its `live` record while recovery redelivers
        the key: the re-drive must rebuild it from its sealed journal (the
        crashed enclave has no channel left to redeliver into)."""
        result = run_crash_pair(("orchestrator", 6), ("target", 3), seed=SEED)
        assert (result.outcome, result.live_instances, result.recoveries) == (
            "recovered:completed", 1, 2
        )
        assert result.safe

    def test_source_crash_inside_recovery_stays_dead(self):
        """The source dies right after recovery cancelled it, holding no
        durable checkpoint: zero live, not a resumed source."""
        result = run_crash_pair(("orchestrator", 1), ("source", 1), seed=SEED)
        assert (result.outcome, result.live_instances) == ("recovered:aborted", 0)
        assert result.safe

    def test_sampled_pair_sweep_all_safe(self):
        results = sweep_pairs(seed=SEED, stride=3, limit=10)
        assert results
        for result in results:
            assert result.safe, f"{result.pair}: {result.outcome} {result.violations}"
            assert result.recoveries <= MAX_RECOVERIES

    def test_pair_sweep_is_deterministic(self):
        a = sweep_pairs(seed=SEED, stride=4, limit=4)
        b = sweep_pairs(seed=SEED, stride=4, limit=4)
        assert [(r.pair, r.outcome, r.recovery_ns) for r in a] == [
            (r.pair, r.outcome, r.recovery_ns) for r in b
        ]

    def test_pair_axis_covers_every_party(self):
        reference = reference_record_counts(SEED)
        assert set(reference) == {
            wal.PARTY_ORCHESTRATOR,
            wal.PARTY_SOURCE,
            wal.PARTY_TARGET,
        }
        assert all(count >= 1 for count in reference.values())


class TestProfiledRecoveryBound:
    def test_recovery_cost_is_bounded_on_sampled_pairs(self):
        """Recovery after a crash pair costs a bounded multiple of a
        clean migration's total virtual time."""
        from repro.telemetry.runs import run_seeded_migration

        clean_total_ns = run_seeded_migration(seed=1).telemetry.metrics.value(
            "migration.total_ns"
        )
        results = sweep_pairs(seed=SEED, stride=3, limit=6)
        for result in results:
            assert result.recovery_ns <= 3 * clean_total_ns, (
                f"{result.pair}: recovery took {result.recovery_ns} ns, "
                f"over 3x a clean migration ({clean_total_ns} ns)"
            )
