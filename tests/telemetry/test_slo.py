"""SLO engine: burn-rate math, edge cases, hysteresis, fault capture."""

import math

import pytest

from repro.faults import FaultInjector, parse_fault_spec
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.telemetry.slo import (
    BurnRate,
    SloEngine,
    SloObjective,
    default_objectives,
)

from tests.conftest import build_counter_app

MS = 1_000_000
S = 1_000_000_000

#: One alert rate with no confirmation subtlety: fires the moment the
#: long window burns at >= 1x.
SIMPLE_RATE = (BurnRate("only", factor=1.0, window_ns=10 * S, confirm_window_ns=10 * S),)


def _objective(**overrides):
    defaults = dict(
        name="downtime",
        signal="migration.downtime_ns",
        budget=30 * MS,
        target=0.5,
        burn_rates=SIMPLE_RATE,
    )
    defaults.update(overrides)
    return SloObjective(**defaults)


def _engine(**overrides):
    return SloEngine((_objective(**overrides),))


class TestValidation:
    def test_burn_rate_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            BurnRate("bad", factor=0, window_ns=S, confirm_window_ns=S)

    def test_confirm_window_cannot_exceed_evaluation_window(self):
        with pytest.raises(ValueError):
            BurnRate("bad", factor=1.0, window_ns=S, confirm_window_ns=2 * S)

    def test_objective_target_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            _objective(target=1.5)

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SloEngine((_objective(), _objective()))


class TestBurnRateEdgeCases:
    def test_zero_budget_marks_every_positive_sample_bad(self):
        # The refusal-rate shape: budget 0, any abort is a bad sample.
        engine = _engine(name="refusals", signal="aborts", budget=0)
        fired = engine.ingest_run(S, {"aborts": 1})
        assert [v.kind for v in fired] == ["fired"]
        assert fired[0].bad == 1

    def test_zero_budget_zero_value_is_good(self):
        engine = _engine(name="refusals", signal="aborts", budget=0)
        assert engine.ingest_run(S, {"aborts": 0}) == []

    def test_negative_budget_behaves_like_zero(self):
        engine = _engine(budget=-5)
        fired = engine.ingest_run(S, {"migration.downtime_ns": 1})
        assert [v.kind for v in fired] == ["fired"]

    def test_empty_window_never_fires(self):
        engine = _engine()
        assert engine.evaluate(100 * S) == []
        # Samples aging out leave the window empty: burn drops to zero,
        # which *clears* a firing alert and can never fire a fresh one.
        engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        assert engine.active_alerts()
        late = engine.evaluate(1000 * S)
        assert [v.kind for v in late] == ["cleared"]
        assert engine.evaluate(2000 * S) == []

    def test_window_shorter_than_one_sample_still_counts_the_newest(self):
        # A 1 ns window covers (now-1, now]: exactly the sample at now.
        rate = (BurnRate("tiny", factor=1.0, window_ns=1, confirm_window_ns=1),)
        engine = _engine(burn_rates=rate)
        fired = engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        assert [v.kind for v in fired] == ["fired"]
        assert fired[0].samples == 1

    def test_target_one_gives_infinite_burn(self):
        engine = _engine(target=1.0)
        fired = engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        assert len(fired) == 1
        assert math.isinf(fired[0].burn)
        # The serialized form is JSON-safe (inf becomes null).
        assert fired[0].as_dict()["burn"] is None

    def test_good_samples_never_fire(self):
        engine = _engine()
        for i in range(1, 20):
            assert engine.ingest_run(i * S, {"migration.downtime_ns": 10 * MS}) == []


class TestHysteresis:
    def test_alert_fires_once_and_clears_once(self):
        engine = _engine()
        # Two bad samples: the first fires the alert, the second does
        # not re-fire it.
        assert [v.kind for v in engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})] == ["fired"]
        assert engine.ingest_run(2 * S, {"migration.downtime_ns": 99 * MS}) == []
        assert engine.active_alerts() == [("downtime", "only")]
        # Good samples dilute the window under 1x: exactly one clear.
        cleared = []
        for i in range(3, 10):
            cleared += engine.ingest_run(i * S, {"migration.downtime_ns": 1 * MS})
        assert [v.kind for v in cleared] == ["cleared"]
        assert engine.active_alerts() == []
        state = engine._state("downtime", "only")
        assert (state.fired_total, state.cleared_total) == (1, 1)

    def test_confirmation_window_gates_firing(self):
        # Long window burns, but the confirmation window has only good
        # samples: no fire until the short window agrees.
        rates = (BurnRate("paged", factor=1.0, window_ns=10 * S, confirm_window_ns=1 * S),)
        engine = _engine(burn_rates=rates)
        fired = engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        assert [v.kind for v in fired] == ["fired"]  # bad sample is fresh
        engine2 = _engine(burn_rates=rates)
        engine2.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        engine2.violations.clear()
        engine2._states.clear()
        # Re-evaluate 5s later: long window still burns, confirm is clean.
        assert engine2.evaluate(6 * S) == []


class TestQuantileObjective:
    def _engine(self):
        objective = SloObjective(
            name="p99",
            signal="migration.downtime_ns",
            kind="quantile",
            q=0.99,
            budget=40 * MS,
            window_ns=100 * S,
        )
        return SloEngine((objective,))

    def test_fires_when_windowed_quantile_exceeds_ceiling(self):
        engine = self._engine()
        fired = []
        for i in range(1, 5):
            fired += engine.ingest_run(i * S, {"migration.downtime_ns": 60 * MS})
        assert [v.kind for v in fired] == ["fired"]
        assert fired[0].burn_label == "quantile"
        assert fired[0].burn > 40 * MS

    def test_clears_when_window_slides_past_the_spike(self):
        engine = self._engine()
        engine.ingest_run(S, {"migration.downtime_ns": 60 * MS})
        assert engine.active_alerts()
        cleared = engine.evaluate(1000 * S)  # spike left the window
        assert [v.kind for v in cleared] == ["cleared"]
        assert engine.active_alerts() == []


class TestDefaultObjectives:
    def test_clean_migration_stays_green(self):
        engine = SloEngine(default_objectives())
        tb = build_testbed(seed=41)
        app = build_counter_app(tb, tag="slo-clean")
        MigrationOrchestrator(tb).migrate_enclave(app)
        delta = tb.telemetry.run_metrics[tb.telemetry.last_run_id]
        assert engine.ingest_run(tb.clock.now_ns, delta, source="mig-clean") == []

    def test_injected_fault_fires_burn_rate_alert_with_flight_capture(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a delayed checkpoint burns the downtime budget,
        the alert lands in the flight recorder (namespaced dump) and the
        monitor's soft SLO ledger — without failing the invariant sweep."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        engine = SloEngine(default_objectives())
        tb = build_testbed(seed=42)
        tb.telemetry.flightrecorder.namespace = "mig-faulted"
        tb.telemetry.flightrecorder.dump_dir = str(tmp_path)
        app = build_counter_app(tb, tag="slo-faulted")
        plan = parse_fault_spec("delay:checkpoint:1")
        plan.seed = 42
        MigrationOrchestrator(tb, faults=FaultInjector(plan)).migrate_enclave(app)
        delta = tb.telemetry.run_metrics[tb.telemetry.last_run_id]
        assert delta["migration.downtime_ns"] > 30 * MS
        fired = engine.ingest_run(
            tb.clock.now_ns, delta, source="mig-faulted", emit_to=tb.telemetry
        )
        assert any(v.kind == "fired" for v in fired)
        # The ("slo", "violation") event is a flight-recorder trigger:
        dumps = tb.telemetry.flightrecorder.dumps
        assert any(d["trigger"] == "slo.violation" for d in dumps)
        files = sorted(tmp_path.glob("flight-mig-faulted-*-slo-violation.json"))
        assert files, "the dump file must carry the migration-id namespace"
        # The monitor records it softly: visible, but not a hard violation.
        monitor = tb.source.monitor
        assert monitor.slo_violations
        assert "downtime" in monitor.slo_violations[0]
        monitor.assert_clean()  # an SLO breach is not a safety failure


class TestGenerationBoundary:
    def test_stale_generation_delta_cannot_refire_cleared_alert(self):
        """A run scope that straddles a registry reset is tainted: it
        closes to no delta, so an engine fed the fleet runner's way
        (``ingest_run`` over ``run_metrics``) never sees its gauge, and a
        cleared alert stays cleared even though the stale scope saw a
        budget-burning downtime."""
        engine = _engine()
        tb = build_testbed(seed=44)
        telemetry = tb.telemetry
        # Fire once, clear once — the hysteresis baseline.
        engine.ingest_run(S, {"migration.downtime_ns": 99 * MS})
        for i in range(2, 9):
            engine.ingest_run(i * S, {"migration.downtime_ns": 1 * MS})
        state = engine._state("downtime", "only")
        assert (state.fired_total, state.cleared_total) == (1, 1)
        assert engine.active_alerts() == []
        windows_before = len(engine._windows["downtime"])
        # A scope opened before a reset closes across a generation
        # change: the violating gauge inside it must be discarded.
        telemetry.begin_run("stale-run")
        telemetry.metrics.gauge("migration.downtime_ns").set(99 * MS)
        telemetry.metrics.reset()  # generation bump mid-scope
        assert telemetry.end_run("stale-run") is None
        assert "stale-run" not in telemetry.run_metrics
        # A clean scope after the reset still closes to a delta.
        telemetry.begin_run("fresh-run")
        telemetry.metrics.gauge("migration.downtime_ns").set(1 * MS)
        assert telemetry.end_run("fresh-run") is not None
        assert sorted(telemetry.run_metrics) == ["fresh-run"]
        for run_id in sorted(telemetry.run_metrics):
            engine.ingest_run(9 * S, telemetry.run_metrics[run_id], source=run_id)
        # Only the clean run reached the window, and the alert did not
        # re-fire.
        assert len(engine._windows["downtime"]) == windows_before + 1
        assert engine.active_alerts() == []
        assert (state.fired_total, state.cleared_total) == (1, 1)
