"""OTLP-JSON exporter: golden-file round-trip, nesting, sketch buckets."""

import json
import os

import pytest

from repro.crypto.backend import BACKEND_ENV, use_backend
from repro.fleet import FleetConfig, FleetReport
from repro.sim.clock import VirtualClock
from repro.sim.trace import EventTrace
from repro.telemetry import Telemetry
from repro.telemetry.otlp import (
    default_resource,
    metrics_from_otlp,
    otlp_span_id,
    otlp_trace_id,
    sketch_to_otlp_histogram,
    spans_from_otlp,
    to_otlp_metrics,
    to_otlp_traces,
)
from repro.telemetry.runs import run_seeded_migration
from repro.telemetry.sketch import QuantileSketch

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "otlp_golden.json")

#: Pinned resource: the golden document must not depend on the
#: environment's crypto-backend setting.
GOLDEN_RESOURCE = {
    "service.name": "repro-migration",
    "migration.id": "mig-golden",
    "crypto.backend": "reference",
    "seed": "1",
}


def build_golden_telemetry() -> Telemetry:
    """A small, fully deterministic telemetry surface.

    Hand-built (no migration) so the golden fixture only changes when
    the *encoder* changes, never when the protocol's span layout does.
    """
    clock = VirtualClock()
    telemetry = Telemetry(clock, EventTrace(clock))
    telemetry.tracer.trace_id = "mig-golden"
    # Nesting lives on per-(party, track) stacks, so the children share
    # the root's party to register as its children.
    with telemetry.span("migration.run", party="orchestrator", seed=1):
        clock.advance(1_000)
        with telemetry.span("checkpoint", party="orchestrator"):
            clock.advance(2_000)
            telemetry.counter("wire.bytes").inc(4096)
        with telemetry.span("restore", party="orchestrator"):
            clock.advance(3_000)
        failed = telemetry.tracer.start("verify", party="orchestrator")
        clock.advance(500)
        telemetry.tracer.end(failed, status="error: digest mismatch")
    with telemetry.span("enclave.resume", party="target", track="enclave"):
        clock.advance(250)
    telemetry.counter("migration.completed_total").inc()
    telemetry.counter("faults.injected", kind="delay").inc(2)
    telemetry.gauge("migration.downtime_ns").set(5_500)
    histogram = telemetry.histogram("journal.commit_latency_ns", buckets=(1_000, 10_000))
    for value in (500, 1_500, 50_000):
        histogram.observe(value)
    return telemetry


def build_golden_sketch() -> QuantileSketch:
    sketch = QuantileSketch()
    for value in (0, 1_000, 2_000, 2_000, 30_000):
        sketch.observe(value)
    return sketch


def golden_document() -> dict:
    telemetry = build_golden_telemetry()
    return {
        "traces": to_otlp_traces(telemetry, resource=GOLDEN_RESOURCE),
        "metrics": to_otlp_metrics(
            telemetry,
            resource=GOLDEN_RESOURCE,
            sketches={"fleet.downtime_ns": build_golden_sketch()},
        ),
    }


class TestGoldenFile:
    def test_export_matches_checked_in_fixture(self):
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert golden_document() == golden

    def test_fixture_round_trips_through_the_readers(self):
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        telemetry = build_golden_telemetry()

        spans = spans_from_otlp(golden["traces"])
        assert [s["name"] for s in spans] == [
            s.name for s in telemetry.tracer.spans
        ]
        by_id = {s["span_id"]: s for s in spans}
        # Span nesting survives: checkpoint/restore/verify hang off run.
        run = next(s for s in spans if s["name"] == "migration.run")
        for child in ("checkpoint", "restore", "verify"):
            span = next(s for s in spans if s["name"] == child)
            assert by_id[span["parent_id"]] is run
        assert run["parent_id"] is None
        resume = next(s for s in spans if s["name"] == "enclave.resume")
        assert resume["parent_id"] is None  # own party: a separate root
        assert resume["attributes"]["repro.track"] == "enclave"
        # Resource attributes round-trip on every span.
        assert all(s["resource"] == GOLDEN_RESOURCE for s in spans)
        # Error status propagates.
        verify = next(s for s in spans if s["name"] == "verify")
        assert verify["status"]["code"] == 2
        assert "digest mismatch" in verify["status"]["message"]

        metrics = metrics_from_otlp(golden["metrics"])
        assert metrics["migration.completed_total"] == 1
        assert metrics["faults.injected{kind=delay}"] == 2
        assert metrics["migration.downtime_ns"] == 5_500
        histogram = metrics["journal.commit_latency_ns"]
        assert histogram["count"] == 3
        assert histogram["bucket_counts"] == [1, 1, 1]
        assert histogram["bounds"] == [1_000, 10_000]

    def test_sketch_histogram_preserves_counts_exactly(self):
        sketch = build_golden_sketch()
        metric = sketch_to_otlp_histogram("fleet.downtime_ns", sketch)
        point = metric["histogram"]["dataPoints"][0]
        counts = [int(c) for c in point["bucketCounts"]]
        assert sum(counts) == sketch.count
        assert counts[-1] == 0  # the overflow bucket is empty by construction
        assert len(point["explicitBounds"]) == len(counts) - 1
        # Bounds are the sketch's own gamma^i boundaries, strictly rising.
        bounds = point["explicitBounds"]
        assert bounds == sorted(bounds)
        assert point["min"] == 0 and point["max"] == 30_000

    def test_empty_sketch_exports_a_single_empty_bucket(self):
        metric = sketch_to_otlp_histogram("empty", QuantileSketch())
        point = metric["histogram"]["dataPoints"][0]
        assert point["count"] == "0"
        assert [int(c) for c in point["bucketCounts"]] == [0, 0]


class TestResource:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_crypto_backend_names_the_active_backend(self, backend, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        fleet = FleetReport(
            config=FleetConfig(n=1), records=[], downtime_sketch=QuantileSketch()
        )
        with use_backend(backend):
            assert default_resource()["crypto.backend"] == backend
            doc = fleet.otlp_metrics()
        attributes = doc["resourceMetrics"][0]["resource"]["attributes"]
        assert {"key": "crypto.backend", "value": {"stringValue": backend}} in attributes


class TestIds:
    def test_trace_id_is_deterministic_128_bit_hex(self):
        assert otlp_trace_id("mig-1") == otlp_trace_id("mig-1")
        assert otlp_trace_id("mig-1") != otlp_trace_id("mig-2")
        assert len(otlp_trace_id("mig-1")) == 32
        int(otlp_trace_id("mig-1"), 16)

    def test_span_id_is_16_hex(self):
        assert otlp_span_id(7) == "0000000000000007"


class TestRealRun:
    def test_seeded_migration_round_trips(self):
        tb = run_seeded_migration(seed=1)
        telemetry = tb.telemetry
        resource = default_resource(telemetry, seed="1")
        assert resource["migration.id"] == telemetry.tracer.trace_id

        spans = spans_from_otlp(to_otlp_traces(telemetry, resource=resource))
        assert len(spans) == len(telemetry.tracer.spans)
        assert {s["span_id"] for s in spans} == {
            s.span_id for s in telemetry.tracer.spans
        }

        metrics = metrics_from_otlp(to_otlp_metrics(telemetry, resource=resource))
        snapshot = telemetry.metrics.snapshot()
        assert set(metrics) == set(snapshot)
        for key, value in snapshot.items():
            if isinstance(value, dict):
                assert metrics[key]["count"] == value["count"]
            else:
                assert metrics[key] == value
