"""The live invariant monitor: active in every test, catches real breaks.

The sentinel tests deliberately violate an invariant and assert the
monitor fires — proving the watchdog is live, not decorative.  Each
sentinel calls ``monitor.acknowledge()`` before returning so the autouse
teardown fixture does not re-raise the intentional violation.
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.invariants import active_monitors
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sgx.structures import Tcs
from tests.conftest import build_counter_app


class TestCleanRuns:
    def test_normal_migration_is_clean(self):
        tb = build_testbed(seed=91)
        app = build_counter_app(tb, tag="clean")
        app.ecall_once(0, "incr", 4)
        result = MigrationOrchestrator(tb).migrate_enclave(app)
        assert result.target_app.ecall_once(0, "read") == 4
        tb.monitor.assert_clean()
        assert tb.monitor.violations == []

    def test_monitor_ticks_during_the_run(self):
        """The engine round hook actually fires — the watch is live."""
        tb = build_testbed(seed=92)
        app = build_counter_app(tb, tag="ticking")
        MigrationOrchestrator(tb).migrate_enclave(app)
        assert tb.monitor._tick > 0

    def test_every_testbed_is_watched(self):
        tb = build_testbed(seed=93)
        assert tb.monitor in active_monitors()
        assert tb.source.monitor is tb.monitor
        assert tb.target.monitor is tb.monitor

    def test_snapshot_fork_is_not_flagged(self):
        """§V-C checkpoint/resume legally yields a second instance of the
        measurement; only migration lineages are subject to P-5."""
        from repro.migration.snapshot import SnapshotManager

        tb = build_testbed(seed=94)
        app = build_counter_app(tb, tag="legal-fork")
        app.ecall_once(0, "incr", 2)
        manager = SnapshotManager(tb, tb.owner)
        snapshot = manager.snapshot(app, reason="backup")
        manager.resume(snapshot, app, reason="restore")
        tb.monitor.assert_clean()


class TestSentinels:
    def test_resurrected_source_is_caught(self):
        """Deliberately break single-instance: bring the self-destroyed
        source back to life next to the live migrated target."""
        tb = build_testbed(seed=95)
        app = build_counter_app(tb, tag="sentinel-fork")
        MigrationOrchestrator(tb).migrate_enclave(app)

        def resurrect(rt):
            rt.set_channel_state(0)
            rt.set_global_flag(0)

        app.library.control_call(resurrect)
        with pytest.raises(InvariantViolation):
            tb.monitor.check_now()
        assert tb.monitor.violations
        tb.monitor.acknowledge()

    def test_double_escrow_release_is_caught(self):
        tb = build_testbed(seed=96)
        tb.trace.emit("agent", "release", key_id="ab" * 16)
        with pytest.raises(InvariantViolation):
            tb.trace.emit("agent", "release", key_id="ab" * 16)
        assert tb.monitor.violations
        tb.monitor.acknowledge()

    def test_distinct_escrow_keys_are_fine(self):
        tb = build_testbed(seed=97)
        tb.trace.emit("agent", "release", key_id="aa" * 16)
        tb.trace.emit("agent", "release", key_id="bb" * 16)
        tb.monitor.assert_clean()

    def test_readable_cssa_is_caught(self, monkeypatch):
        """If TCS.CSSA ever became software-readable, the probe trips."""
        monkeypatch.setattr(Tcs, "cssa", property(lambda self: self._cssa))
        tb = build_testbed(seed=98)
        app = build_counter_app(tb, tag="cssa-leak")
        tb.monitor.register_lineage(app)
        with pytest.raises(InvariantViolation):
            tb.monitor.check_now()
        assert any("CSSA" in v for v in tb.monitor.violations)
        tb.monitor.acknowledge()

    def test_snapshot_sequence_rollback_is_caught(self):
        """A §V-C take whose sequence is not strictly above the last take
        for that image means a rolled-back lineage is checkpointing."""
        tb = build_testbed(seed=101)
        tb.trace.emit("snapshot", "take", image="db", sequence=3)
        tb.trace.emit("snapshot", "take", image="db", sequence=4)
        with pytest.raises(InvariantViolation):
            tb.trace.emit("snapshot", "take", image="db", sequence=3)
        assert any("snapshot sequence" in v for v in tb.monitor.violations)
        tb.monitor.acknowledge()

    def test_snapshot_sequences_are_tracked_per_image(self):
        tb = build_testbed(seed=102)
        tb.trace.emit("snapshot", "take", image="db", sequence=5)
        tb.trace.emit("snapshot", "take", image="cache", sequence=1)
        tb.trace.emit("snapshot", "resume", image="db", sequence=5)
        tb.monitor.assert_clean()

    def test_real_snapshot_takes_feed_the_monitor(self):
        """SnapshotManager emits the take event the monitor watches."""
        from repro.migration.snapshot import SnapshotManager

        tb = build_testbed(seed=103)
        app = build_counter_app(tb, tag="seq-watch")
        manager = SnapshotManager(tb, tb.owner)
        first = manager.snapshot(app, reason="backup")
        second = manager.snapshot(app, reason="backup")
        assert second.sequence > first.sequence
        assert tb.monitor._snapshot_taken[app.image.name] == second.sequence
        tb.monitor.assert_clean()

    def test_escrow_table_leak_is_caught(self):
        """The escrow table may never outgrow the distinct measurements
        ever escrowed — a larger table means entries leak under churn."""
        tb = build_testbed(seed=104)
        tb.trace.emit("agent", "escrow", key_id="aa" * 16, table_size=1)
        tb.trace.emit("agent", "escrow", key_id="bb" * 16, table_size=2)
        # Re-escrow of a released measurement overwrites in place: fine.
        tb.trace.emit("agent", "escrow", key_id="aa" * 16, table_size=2)
        with pytest.raises(InvariantViolation):
            tb.trace.emit("agent", "escrow", key_id="aa" * 16, table_size=3)
        assert any("escrow table" in v for v in tb.monitor.violations)
        tb.monitor.acknowledge()

    def test_acknowledge_stands_the_monitor_down(self):
        tb = build_testbed(seed=99)
        tb.trace.emit("agent", "release", key_id="cc" * 16)
        with pytest.raises(InvariantViolation):
            tb.trace.emit("agent", "release", key_id="cc" * 16)
        tb.monitor.acknowledge()
        tb.monitor.assert_clean()  # disabled: no re-raise at teardown
