"""Downtime budget on one migration: a clean run stays within it, an
injected fault breaches it and the breach lands in the flight recorder."""

from repro.faults import FaultInjector, parse_fault_spec
from repro.fleet import MigrationRecord
from repro.fleet.runner import DOWNTIME_BUDGET_NS
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed

from tests.conftest import build_counter_app


def _record(tb, mig_id: str, seed: int) -> MigrationRecord:
    """The migration's figures, read from its own testbed as the fleet
    runner reads them."""
    metrics = tb.telemetry.metrics
    return MigrationRecord(
        index=0, mig_id=mig_id, seed=str(seed), status="ok", faulted=False,
        start_ns=0, end_ns=tb.clock.now_ns, duration_ns=tb.clock.now_ns,
        downtime_ns=int(metrics.value("migration.downtime_ns")),
        total_ns=int(metrics.value("migration.total_ns")),
    )


class TestDefaultObjectives:
    def test_clean_migration_stays_green(self):
        tb = build_testbed(seed=41)
        app = build_counter_app(tb, tag="slo-clean")
        MigrationOrchestrator(tb).migrate_enclave(app)
        record = _record(tb, "mig-clean", seed=41)
        assert 0 < record.downtime_ns <= DOWNTIME_BUDGET_NS
        assert record.budget_violation() is None

    def test_injected_fault_fires_burn_rate_alert_with_flight_capture(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a delayed checkpoint burns the downtime budget,
        the violation lands in the flight recorder (namespaced dump) —
        without failing the invariant sweep."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        tb = build_testbed(seed=42)
        tb.telemetry.flightrecorder.namespace = "mig-faulted"
        tb.telemetry.flightrecorder.dump_dir = str(tmp_path)
        app = build_counter_app(tb, tag="slo-faulted")
        plan = parse_fault_spec("delay:checkpoint:1")
        plan.seed = 42
        MigrationOrchestrator(tb, faults=FaultInjector(plan)).migrate_enclave(app)
        record = _record(tb, "mig-faulted", seed=42)
        assert record.downtime_ns > DOWNTIME_BUDGET_NS
        violation = record.budget_violation()
        assert violation["objective"] == "downtime-budget"
        assert violation["mig_id"] == "mig-faulted"
        # The ("slo", "violation") event is a flight-recorder trigger:
        tb.telemetry.trace.emit("slo", "violation", **violation)
        dumps = tb.telemetry.flightrecorder.dumps
        assert any(d["trigger"] == "slo.violation" for d in dumps)
        files = sorted(tmp_path.glob("flight-mig-faulted-*-slo-violation.json"))
        assert files, "the dump file must carry the migration-id namespace"
        # A budget breach is an operational incident, not a safety failure.
        tb.source.monitor.assert_clean()
