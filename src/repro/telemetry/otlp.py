"""OTLP-JSON exporter: traces and metrics in the OpenTelemetry wire shape.

The Chrome and Prometheus exporters feed a human with a browser; this
one feeds a *collector*.  :func:`to_otlp_traces` and
:func:`to_otlp_metrics` render one telemetry surface as OTLP/JSON
(`ExportTraceServiceRequest` / `ExportMetricsServiceRequest` bodies per
the OTLP 1.x JSON encoding), so a fleet run's artifacts load straight
into any OpenTelemetry backend:

* spans keep their nesting (``parentSpanId``) and party/track placement
  (as attributes); the 128-bit ``traceId`` is derived deterministically
  from the run's trace id, so two runs of the same seed produce
  byte-identical documents;
* resource attributes carry run identity — migration id, crypto
  backend, seed — which is what makes 500 concurrent migrations
  separable on the backend side;
* counters export as monotonic cumulative sums, gauges as gauges,
  fixed-bucket histograms as explicit-bounds histograms, and
  :class:`~repro.telemetry.sketch.QuantileSketch` aggregates convert to
  explicit-bounds histograms whose bounds are the sketch's own
  ``gamma^i`` bucket boundaries (no resampling, no precision loss
  beyond the sketch's).

Per the OTLP JSON mapping, 64-bit integers (timestamps, int sums) are
encoded as **strings** and trace/span ids as lowercase hex.  The
:func:`spans_from_otlp` / :func:`metrics_from_otlp` readers invert the
encoding for round-trip tests and offline tooling.

Everything is a pure function of telemetry state — exporting never
advances the clock — and every list is emitted in a deterministic
order (spans in creation order, metrics sorted by series key), so CI
can diff OTLP artifacts byte-wise like every other exporter output.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.crypto.backend import get_backend
from repro.telemetry.exporters import json_safe
from repro.telemetry.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    metric_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry
    from repro.telemetry.sketch import QuantileSketch

__all__ = [
    "default_resource",
    "metrics_from_otlp",
    "sketch_to_otlp_histogram",
    "spans_from_otlp",
    "to_otlp_metrics",
    "to_otlp_traces",
]

SCOPE = {"name": "repro.telemetry", "version": "1"}

#: OTLP enum values (the JSON encoding uses the numbers).
SPAN_KIND_INTERNAL = 1
STATUS_OK = 1
STATUS_ERROR = 2
AGGREGATION_CUMULATIVE = 2


# ------------------------------------------------------------------ encoding

def _attr_value(value: Any) -> dict[str, Any]:
    """One OTLP ``AnyValue``.  64-bit ints are strings per the mapping."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    if isinstance(value, (list, tuple)):
        return {"arrayValue": {"values": [_attr_value(json_safe(v)) for v in value]}}
    if isinstance(value, dict):
        return {
            "kvlistValue": {
                "values": [_kv(str(k), json_safe(v)) for k, v in sorted(value.items())]
            }
        }
    return {"stringValue": str(json_safe(value))}


def _kv(key: str, value: Any) -> dict[str, Any]:
    return {"key": key, "value": _attr_value(value)}


def _attributes(attrs: dict[str, Any]) -> list[dict[str, Any]]:
    return [_kv(str(k), json_safe(attrs[k])) for k in sorted(attrs)]


def _decode_value(any_value: dict[str, Any]) -> Any:
    if "intValue" in any_value:
        return int(any_value["intValue"])
    if "doubleValue" in any_value:
        return any_value["doubleValue"]
    if "boolValue" in any_value:
        return any_value["boolValue"]
    if "stringValue" in any_value:
        return any_value["stringValue"]
    if "arrayValue" in any_value:
        return [_decode_value(v) for v in any_value["arrayValue"].get("values", [])]
    if "kvlistValue" in any_value:
        return {
            kv["key"]: _decode_value(kv["value"])
            for kv in any_value["kvlistValue"].get("values", [])
        }
    return None


def _decode_attributes(attributes: list[dict[str, Any]]) -> dict[str, Any]:
    return {kv["key"]: _decode_value(kv["value"]) for kv in attributes}


def otlp_trace_id(trace_id: str | None) -> str:
    """A deterministic 128-bit OTLP trace id from the run's trace id."""
    return hashlib.sha256((trace_id or "repro").encode()).hexdigest()[:32]


def otlp_span_id(span_id: int) -> str:
    return f"{span_id & 0xFFFFFFFFFFFFFFFF:016x}"


def default_resource(telemetry: "Telemetry | None" = None, **extra: Any) -> dict[str, Any]:
    """Resource attributes identifying one migration run.

    ``migration.id`` is the run's trace id, ``crypto.backend`` the
    active checkpoint crypto backend — the two keys a fleet backend
    groups by.  Callers add ``seed`` and friends via ``extra``.
    """
    resource: dict[str, Any] = {"service.name": "repro-migration"}
    if telemetry is not None and telemetry.tracer.trace_id:
        resource["migration.id"] = telemetry.tracer.trace_id
    resource["crypto.backend"] = get_backend().name
    resource.update(extra)
    return resource


# -------------------------------------------------------------------- traces

def to_otlp_traces(
    telemetry: "Telemetry", resource: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Every span as one OTLP/JSON ``ExportTraceServiceRequest`` body."""
    if resource is None:
        resource = default_resource(telemetry)
    trace_id = otlp_trace_id(telemetry.tracer.trace_id)
    spans = []
    for span in telemetry.tracer.spans:
        end_ns = span.end_ns if span.end_ns is not None else span.start_ns
        status_code = STATUS_OK if span.status == "ok" else STATUS_ERROR
        otlp_span: dict[str, Any] = {
            "traceId": trace_id,
            "spanId": otlp_span_id(span.span_id),
            "parentSpanId": otlp_span_id(span.parent_id) if span.parent_id else "",
            "name": span.name,
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": str(span.start_ns),
            "endTimeUnixNano": str(end_ns),
            "attributes": _attributes(
                {"repro.party": span.party, "repro.track": span.track, **span.attrs}
            ),
            "status": {"code": status_code},
        }
        if status_code == STATUS_ERROR:
            otlp_span["status"]["message"] = span.status
        spans.append(otlp_span)
    return {
        "resourceSpans": [
            {
                "resource": {"attributes": _attributes(resource)},
                "scopeSpans": [{"scope": dict(SCOPE), "spans": spans}],
            }
        ]
    }


def spans_from_otlp(document: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten an OTLP traces document back into plain span dicts."""
    result = []
    for resource_spans in document.get("resourceSpans", []):
        resource = _decode_attributes(resource_spans["resource"]["attributes"])
        for scope_spans in resource_spans.get("scopeSpans", []):
            for span in scope_spans.get("spans", []):
                result.append(
                    {
                        "trace_id": span["traceId"],
                        "span_id": int(span["spanId"], 16),
                        "parent_id": (
                            int(span["parentSpanId"], 16)
                            if span.get("parentSpanId")
                            else None
                        ),
                        "name": span["name"],
                        "start_ns": int(span["startTimeUnixNano"]),
                        "end_ns": int(span["endTimeUnixNano"]),
                        "status": span.get("status", {}),
                        "attributes": _decode_attributes(span.get("attributes", [])),
                        "resource": resource,
                    }
                )
    return result


# ------------------------------------------------------------------- metrics

def sketch_to_otlp_histogram(
    name: str,
    sketch: "QuantileSketch",
    t_ns: int = 0,
    attributes: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One quantile sketch as an OTLP explicit-bounds histogram metric.

    The sketch's geometric buckets *are* the explicit bounds: bucket
    index ``i`` covers ``(gamma^(i-1), gamma^i]``, so emitting bounds
    ``gamma^i`` for every occupied index preserves the sketch's exact
    counts.  Zero-valued observations land in the first bucket (their
    upper bound is the smallest emitted bound), and the trailing
    overflow bucket is always empty by construction.
    """
    gamma = (1.0 + sketch.relative_error) / (1.0 - sketch.relative_error)
    indices = sorted(sketch.buckets)
    bounds = [gamma ** i for i in indices]
    counts = [sketch.buckets[i] for i in indices]
    if bounds:
        counts[0] += sketch.zero_count
        bucket_counts = counts + [0]
    else:
        bounds = [0.0]
        bucket_counts = [sketch.zero_count, 0]
    point: dict[str, Any] = {
        "attributes": _attributes(attributes or {}),
        "timeUnixNano": str(int(t_ns)),
        "count": str(sketch.count),
        "sum": sketch.sum,
        "bucketCounts": [str(c) for c in bucket_counts],
        "explicitBounds": bounds,
    }
    if sketch.min is not None:
        point["min"] = sketch.min
    if sketch.max is not None:
        point["max"] = sketch.max
    return {
        "name": name,
        "histogram": {
            "aggregationTemporality": AGGREGATION_CUMULATIVE,
            "dataPoints": [point],
        },
    }


def to_otlp_metrics(
    telemetry: "Telemetry",
    resource: dict[str, Any] | None = None,
    sketches: dict[str, "QuantileSketch"] | None = None,
) -> dict[str, Any]:
    """The registry (plus optional fleet sketches) as OTLP/JSON metrics."""
    if resource is None:
        resource = default_resource(telemetry)
    now = str(telemetry.clock.now_ns)
    metrics: list[dict[str, Any]] = []
    instruments = sorted(
        telemetry.metrics, key=lambda i: metric_key(i.name, i.labels)
    )
    for instrument in instruments:
        attributes = _attributes(instrument.labels)
        if isinstance(instrument, CounterMetric):
            metrics.append(
                {
                    "name": instrument.name,
                    "sum": {
                        "aggregationTemporality": AGGREGATION_CUMULATIVE,
                        "isMonotonic": True,
                        "dataPoints": [
                            {
                                "attributes": attributes,
                                "timeUnixNano": now,
                                "asInt": str(instrument.value),
                            }
                        ],
                    },
                }
            )
        elif isinstance(instrument, GaugeMetric):
            value = instrument.value
            point: dict[str, Any] = {"attributes": attributes, "timeUnixNano": now}
            if isinstance(value, int):
                point["asInt"] = str(value)
            else:
                point["asDouble"] = value
            metrics.append({"name": instrument.name, "gauge": {"dataPoints": [point]}})
        elif isinstance(instrument, HistogramMetric):
            running, bucket_counts = 0, []
            for count in instrument.bucket_counts[:-1]:
                bucket_counts.append(count)
                running += count
            bucket_counts.append(instrument.count - running)
            metrics.append(
                {
                    "name": instrument.name,
                    "histogram": {
                        "aggregationTemporality": AGGREGATION_CUMULATIVE,
                        "dataPoints": [
                            {
                                "attributes": attributes,
                                "timeUnixNano": now,
                                "count": str(instrument.count),
                                "sum": instrument.sum,
                                "bucketCounts": [str(c) for c in bucket_counts],
                                "explicitBounds": list(instrument.buckets),
                            }
                        ],
                    },
                }
            )
    for name in sorted(sketches or {}):
        metrics.append(
            sketch_to_otlp_histogram(
                name, sketches[name], t_ns=telemetry.clock.now_ns
            )
        )
    return {
        "resourceMetrics": [
            {
                "resource": {"attributes": _attributes(resource)},
                "scopeMetrics": [{"scope": dict(SCOPE), "metrics": metrics}],
            }
        ]
    }


def metrics_from_otlp(document: dict[str, Any]) -> dict[str, Any]:
    """Flatten an OTLP metrics document into ``series key -> value``.

    Counters and gauges come back as scalars, histograms as
    ``{"count", "sum", "bucket_counts", "bounds"}`` dicts — enough for
    round-trip tests to compare against the registry they started from.
    """
    result: dict[str, Any] = {}
    for resource_metrics in document.get("resourceMetrics", []):
        for scope_metrics in resource_metrics.get("scopeMetrics", []):
            for metric in scope_metrics.get("metrics", []):
                name = metric["name"]
                if "sum" in metric or "gauge" in metric:
                    body = metric.get("sum") or metric.get("gauge")
                    for point in body.get("dataPoints", []):
                        labels = _decode_attributes(point.get("attributes", []))
                        value = (
                            int(point["asInt"])
                            if "asInt" in point
                            else point.get("asDouble", 0)
                        )
                        result[metric_key(name, labels)] = value
                elif "histogram" in metric:
                    for point in metric["histogram"].get("dataPoints", []):
                        labels = _decode_attributes(point.get("attributes", []))
                        result[metric_key(name, labels)] = {
                            "count": int(point["count"]),
                            "sum": point["sum"],
                            "bucket_counts": [int(c) for c in point["bucketCounts"]],
                            "bounds": list(point["explicitBounds"]),
                        }
    return result
