"""Quantile sketches and per-migration run scopes."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runs import run_seeded_migration
from repro.telemetry.sketch import QuantileSketch, RunScope, snapshot_delta


class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch()
        values = list(range(1, 10_001))
        for v in values:
            sketch.observe(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert abs(sketch.quantile(q) - exact) <= 0.025 * exact

    def test_zero_and_negative_handling(self):
        sketch = QuantileSketch()
        sketch.observe(0)
        sketch.observe(0)
        sketch.observe(10)
        assert sketch.count == 3
        assert sketch.quantile(0.25) == 0
        with pytest.raises(ValueError):
            sketch.observe(-1)

    def test_deterministic(self):
        def build():
            s = QuantileSketch()
            for v in range(1, 1_000):
                s.observe(v * 7)
            return s

        a, b = build(), build()
        assert a.buckets == b.buckets
        assert (a.count, a.zero_count, a.sum, a.min, a.max) == (
            b.count, b.zero_count, b.sum, b.min, b.max
        )
        for q in (0.0, 0.01, 0.5, 0.95, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)


class TestRunScopes:
    def test_scope_captures_only_its_own_deltas(self):
        registry = MetricsRegistry()
        registry.counter("x.total").inc(5)
        scope = RunScope(registry, "r1")
        registry.counter("x.total").inc(3)
        registry.gauge("y").set(42)
        delta = scope.close()
        assert delta["x.total"] == 3
        assert delta["y"] == 42

    def test_scope_spanning_reset_is_discarded(self):
        registry = MetricsRegistry()
        registry.counter("x.total").inc(1)
        scope = RunScope(registry, "r1")
        registry.reset()
        registry.counter("x.total").inc(9)
        assert scope.close() is None

    def test_snapshot_delta_histograms(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_ns")
        h.observe(5_000)
        before = registry.snapshot()
        h.observe(50_000)
        h.observe(70_000)
        delta = snapshot_delta(before, registry.snapshot(), {"lat_ns": "histogram"})
        assert delta["lat_ns"]["count"] == 2
        assert delta["lat_ns"]["sum"] == 120_000
        assert delta["lat_ns"]["mean"] == 60_000

    def test_migration_run_is_scoped(self):
        tb = run_seeded_migration(seed=11)
        telemetry = tb.telemetry
        assert telemetry.last_run_id is not None
        delta = telemetry.run_metrics[telemetry.last_run_id]
        assert delta["migration.downtime_ns"] > 0
        assert delta["migration.completed_total"] == 1
        assert telemetry.run_isolation_violations() == []

    def test_chain_hops_have_isolated_scopes(self):
        from repro.durability.sweep import build_sweep_app
        from repro.migration.chain import run_chain
        from repro.migration.testbed import build_testbed

        tb = build_testbed(seed=21)
        report = run_chain(tb, build_sweep_app(tb), hops=3)
        run_ids = report.all_run_ids()
        assert len(run_ids) == 3
        assert len(set(run_ids)) == 3
        downtimes = [
            hop.run_metrics[rid]["migration.downtime_ns"]
            for hop in report.hops
            for rid in hop.run_ids
        ]
        assert all(d > 0 for d in downtimes)
        # Per-run deltas must add up within the global registry values.
        assert tb.telemetry.run_isolation_violations() == []
        tb.monitor.check_now()
        assert not tb.monitor.violations
        sketch = report.downtime_sketch()
        assert sketch.count == 3
        assert sketch.p50 == pytest.approx(downtimes[0], rel=0.03)

