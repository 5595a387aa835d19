"""Exporters: Chrome trace_event, Prometheus text."""

import json

import pytest

from repro.telemetry.exporters import to_chrome_trace, to_prometheus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runs import run_seeded_migration


@pytest.fixture(scope="module")
def tb():
    return run_seeded_migration(seed=5)


class TestChromeTrace:
    def test_shape_and_metadata(self, tb):
        doc = to_chrome_trace(tb.telemetry)
        json.dumps(doc)  # must be valid JSON end to end
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        procs = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert {p["args"]["name"] for p in procs} >= {"orchestrator", "source", "target"}

    def test_stop_and_copy_duration_matches_downtime_metric(self, tb):
        doc = to_chrome_trace(tb.telemetry)
        (sc,) = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "migration.stop_and_copy"
        ]
        downtime_ns = tb.trace.metrics.value("migration.downtime_ns")
        assert sc["dur"] * 1_000 == downtime_ns  # ts/dur are microseconds

    def test_x_events_cover_every_finished_span(self, tb):
        doc = to_chrome_trace(tb.telemetry)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tb.telemetry.tracer.finished())


class TestPrometheus:
    def test_seeded_run_exposition(self, tb):
        text = to_prometheus(tb.trace.metrics)
        assert "# TYPE migration_downtime_ns gauge" in text
        assert "# TYPE sgx_instructions_total counter" in text
        downtime = tb.trace.metrics.value("migration.downtime_ns")
        assert f"migration_downtime_ns {downtime}" in text

    def test_histogram_rendering(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat.ns", buckets=(10, 100), party="source")
        for v in (5, 50, 500):
            h.observe(v)
        text = to_prometheus(reg)
        assert '# TYPE lat_ns histogram' in text
        assert 'lat_ns_bucket{le="10",party="source"} 1' in text
        assert 'lat_ns_bucket{le="100",party="source"} 2' in text
        assert 'lat_ns_bucket{le="+Inf",party="source"} 3' in text
        assert 'lat_ns_sum{party="source"} 555' in text
        assert 'lat_ns_count{party="source"} 3' in text

    def test_one_type_line_per_family(self):
        reg = MetricsRegistry()
        reg.counter("wire.bytes", channel="a").inc()
        reg.counter("wire.bytes", channel="b").inc()
        text = to_prometheus(reg)
        assert text.count("# TYPE wire_bytes counter") == 1

    def test_exposition_order_is_deterministic_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first", shard="b").inc()
        reg.counter("a.first", shard="a").inc()
        reg.gauge("m.middle").set(7)
        sample_lines = [
            line for line in to_prometheus(reg).splitlines()
            if line and not line.startswith("#")
        ]
        assert sample_lines == sorted(sample_lines)

    def test_mixed_type_label_values_sort_without_error(self):
        # Labels mixing int and str values used to TypeError under the
        # old tuple sort; the metric_key sort is type-agnostic.
        reg = MetricsRegistry()
        reg.counter("x.total", shard=1).inc()
        reg.counter("x.total", shard="a").inc(2)
        text = to_prometheus(reg)
        assert 'x_total{shard="1"} 1' in text
        assert 'x_total{shard="a"} 2' in text
        assert text.index('shard="1"') < text.index('shard="a"')


class TestDeterminism:
    @staticmethod
    def _reset_global_counters():
        """Pin the process-global CPU id counter so two runs in one pytest
        process draw identical rdrand fork labels (same trick as the
        fault-matrix regression test)."""
        import itertools

        from repro.sgx.cpu import SgxCpu

        SgxCpu._ids = itertools.count(1)

    def test_same_seed_byte_identical_artifacts(self):
        self._reset_global_counters()
        a = run_seeded_migration(seed=11)
        self._reset_global_counters()
        b = run_seeded_migration(seed=11)
        assert json.dumps(to_chrome_trace(a.telemetry), sort_keys=True) == json.dumps(
            to_chrome_trace(b.telemetry), sort_keys=True
        )
        assert to_prometheus(a.trace.metrics) == to_prometheus(b.trace.metrics)


class TestPromtoolParse:
    """A promtool-style lint of the exposition format: every sample has
    a preceding ``# HELP``/``# TYPE`` for its family, families are
    contiguous, and ``_ns`` series carry derived unit-suffixed
    ``_seconds`` twins."""

    @staticmethod
    def _lint(text):
        helped, typed, families_seen = set(), set(), []
        current = None
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind in ("counter", "gauge", "histogram"), line
                typed.add(name)
                continue
            assert not line.startswith("#"), f"unknown comment: {line}"
            name = line.split("{")[0].split(" ")[0]
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix) and family[: -len(suffix)] in typed:
                    family = family[: -len(suffix)]
                    break
            assert family in typed, f"sample before # TYPE: {line}"
            assert family in helped, f"sample before # HELP: {line}"
            if family != current:
                assert family not in families_seen, f"family split: {family}"
                families_seen.append(family)
                current = family
            float(line.rsplit(" ", 1)[1])  # value must parse
        return families_seen

    def test_seeded_exposition_passes_lint(self, tb):
        self._lint(to_prometheus(tb.trace.metrics))

    def test_ns_series_get_unit_suffixed_seconds_twins(self):
        reg = MetricsRegistry()
        reg.gauge("migration.downtime_ns").set(2_500_000_000)
        reg.counter("wire.total_bytes", channel="tls").inc(4096)
        h = reg.histogram("queue.wait_ns", buckets=(1_000_000_000,))
        h.observe(500_000_000)
        text = to_prometheus(reg)
        families = self._lint(text)
        assert "migration_downtime_seconds" in families
        assert "queue_wait_seconds" in families
        assert "migration_downtime_seconds 2.5" in text
        # Bucket bounds convert with the values.
        assert 'queue_wait_seconds_bucket{le="1.0"} 1' in text
        assert "queue_wait_seconds_sum 0.5" in text
        # _bytes names are already unit-suffixed: no twin, no rename.
        assert "wire_total_bytes" in families
        assert "wire_total_bytes_seconds" not in text

    def test_derived_families_do_not_shadow_base_series(self, tb):
        text = to_prometheus(tb.trace.metrics)
        downtime = tb.trace.metrics.value("migration.downtime_ns")
        assert f"migration_downtime_ns {downtime}" in text
        assert f"migration_downtime_seconds {downtime / 1e9}" in text
