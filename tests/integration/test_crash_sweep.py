"""The crash-point sweep and the chaos soak (CI ``soak`` job).

``FAULT_SEED`` re-seeds both; ``SOAK_ITERS`` scales the soak.  Every
plan is fully determined by the seed, so a red run replays exactly with
``FAULT_SEED=<seed> pytest -m sweep`` (or ``-m soak``).
"""

from __future__ import annotations

import os

import pytest

from repro.durability.sweep import chaos_soak, run_agent_crash_point, sweep

SEED = int(os.environ.get("FAULT_SEED", "5"))
SOAK_ITERS = int(os.environ.get("SOAK_ITERS", "4"))
SWEEP_WORKERS = int(os.environ.get("SWEEP_WORKERS", "0"))


def _table(**ranges) -> dict[tuple[str, int], tuple[str, int]]:
    """``party=[(first, last, outcome, live), ...]`` → one entry per record."""
    return {
        (party, record): (outcome, live)
        for party, rows in ranges.items()
        for first, last, outcome, live in rows
        for record in range(first, last + 1)
    }


#: Where recovery leaves each single crash point: (outcome, live instances).
EXPECTED = _table(
    orchestrator=[
        (1, 5, "resumed-source", 1),
        (6, 8, "completed", 1),
        (9, 9, "already-complete", 1),
    ],
    source=[(1, 2, "source-restored", 1), (3, 3, "aborted", 0)],
    target=[(1, 1, "resumed-source", 1), (2, 3, "completed", 1)],
)
#: The same with a sealed-storage namespace (two more orchestrator
#: records and one more per enclave: the `handoff-storage` step).
EXPECTED_WITH_STORAGE = _table(
    orchestrator=[
        (1, 7, "resumed-source", 1),
        (8, 10, "completed", 1),
        (11, 11, "already-complete", 1),
    ],
    source=[(1, 3, "source-restored", 1), (4, 4, "aborted", 0)],
    target=[(1, 2, "resumed-source", 1), (3, 4, "completed", 1)],
)


def _outcomes(results) -> dict[tuple[str, int], tuple[str, int]]:
    return {
        (r.party, r.record): (r.outcome.removeprefix("recovered:"), r.live_instances)
        for r in results
    }


@pytest.mark.sweep
class TestCrashPointSweep:
    def test_every_party_every_record_boundary(self):
        """Crash each migration party after each record it commits: every
        point must end with exactly one live instance or a clean abort
        with zero — never a fork, never post-SPENT execution."""
        results = sweep(seed=SEED, workers=SWEEP_WORKERS or None)
        bad = [r for r in results if not r.safe]
        assert not bad, f"unsafe crash points: {bad}"
        assert _outcomes(results) == EXPECTED

    def test_every_record_boundary_with_sealed_storage(self):
        """The same sweep over a migration that hands off a sealed-storage
        namespace: the note survives in every live outcome."""
        results = sweep(seed=SEED, storage=True)
        bad = [r for r in results if not r.safe]
        assert not bad, f"unsafe crash points: {bad}"
        assert _outcomes(results) == EXPECTED_WITH_STORAGE

    def test_agent_record_boundaries(self):
        for record in (1, 2):
            result = run_agent_crash_point(record, seed=SEED)
            assert result.safe, result


@pytest.mark.soak
class TestChaosSoak:
    def test_crashes_inside_a_hostile_network(self):
        """Record crashes landing amid drops / corruption / duplication /
        partitions: recovery must hold the invariants in every iteration."""
        results = chaos_soak(seed=SEED, iterations=SOAK_ITERS)
        assert len(results) == SOAK_ITERS
        bad = [r for r in results if not r.safe]
        assert not bad, f"unsafe soak iterations: {bad}"
