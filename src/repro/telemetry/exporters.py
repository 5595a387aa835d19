"""Telemetry exporters: Chrome trace_event and Prometheus text.

(The OTLP/JSON exporter is :mod:`repro.telemetry.otlp`.)

* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON format
  (object form, ``{"traceEvents": [...]}``) loadable in Perfetto or
  chrome://tracing; parties map to processes, tracks to threads.
* :func:`to_prometheus` — a Prometheus text-exposition snapshot of the
  metrics registry (dots become underscores; labels are preserved).

All exporters are pure functions of the telemetry state: they never
advance the clock or mutate anything, so exporting mid-run is safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.telemetry.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    metric_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry


def json_safe(value: Any) -> Any:
    """Coerce payload values into the JSON universe (bytes become hex)."""
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# --------------------------------------------------------------- chrome trace

def to_chrome_trace(
    telemetry: "Telemetry",
    network: "Any | None" = None,
    critical: "Any | None" = None,
) -> dict[str, Any]:
    """The run as a Chrome ``trace_event`` object (ts/dur in microseconds).

    Finished spans become complete ("X") events; unfinished spans and
    plain trace events become instants ("i") so nothing is silently
    dropped.  Virtual time maps one-to-one onto trace time.

    Two optional overlays extend the base export backward-compatibly:

    * ``network`` — a :class:`~repro.net.network.Network`; each transfer
      record becomes an "X" slice on a ``wire`` process, and delivered
      records whose receiving span adopted them get flow arrows
      ("s"/"f" events keyed on the wire sequence number) from the slice
      to the receiving span's track.
    * ``critical`` — an :class:`~repro.telemetry.criticalpath.ExplainReport`
      (or single ``CriticalPathReport``); its attributed segments render
      as "X" slices on a ``critical-path`` process so the blame timeline
      sits directly under the spans it explains.
    """
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    trace_events: list[dict[str, Any]] = []

    def pid_for(party: str) -> int:
        if party not in pids:
            pids[party] = len(pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[party],
                    "args": {"name": party},
                }
            )
        return pids[party]

    def tid_for(party: str, track: str) -> int:
        key = (party, track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == party]) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_for(party),
                    "tid": tids[key],
                    "args": {"name": f"{party}/{track}" if track else party},
                }
            )
        return tids[key]

    for span in telemetry.tracer.spans:
        pid = pid_for(span.party)
        tid = tid_for(span.party, span.track)
        if span.finished:
            trace_events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "span",
                    "ts": span.start_ns / 1_000,
                    "dur": span.duration_ns / 1_000,
                    "pid": pid,
                    "tid": tid,
                    "args": json_safe({"status": span.status, **span.attrs}),
                }
            )
        else:
            trace_events.append(
                {
                    "ph": "i",
                    "name": f"{span.name} (unfinished)",
                    "cat": "span",
                    "ts": span.start_ns / 1_000,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": json_safe(span.attrs),
                }
            )
    events_pid = pid_for("events")
    events_tid = tid_for("events", "")
    for event in telemetry.trace.events:
        trace_events.append(
            {
                "ph": "i",
                "name": f"{event.category}.{event.name}",
                "cat": event.category,
                "ts": event.t_ns / 1_000,
                "pid": events_pid,
                "tid": events_tid,
                "s": "t",
                "args": json_safe(event.payload),
            }
        )

    if network is not None:
        span_by_id = {s.span_id: s for s in telemetry.tracer.spans}
        wire_pid = pid_for("wire")
        wire_tid = tid_for("wire", "")
        for record in network.log:
            end_ns = record.t_done_ns
            if end_ns is None:
                end_ns = record.t_send_ns
            trace_events.append(
                {
                    "ph": "X",
                    "name": record.label,
                    "cat": "wire",
                    "ts": record.t_send_ns / 1_000,
                    "dur": max(end_ns - record.t_send_ns, 0) / 1_000,
                    "pid": wire_pid,
                    "tid": wire_tid,
                    "args": {
                        "seq": record.seq,
                        "bytes": record.n_bytes,
                        "status": record.status,
                        "duplicate": record.duplicate,
                        "reordered": record.reordered,
                    },
                }
            )
            recv = span_by_id.get(record.recv_span_id)
            if record.status != "delivered" or recv is None:
                continue
            trace_events.append(
                {
                    "ph": "s",
                    "id": record.seq,
                    "name": f"wire/{record.label}",
                    "cat": "wire-flow",
                    "ts": record.t_send_ns / 1_000,
                    "pid": wire_pid,
                    "tid": wire_tid,
                }
            )
            trace_events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "id": record.seq,
                    "name": f"wire/{record.label}",
                    "cat": "wire-flow",
                    "ts": end_ns / 1_000,
                    "pid": pid_for(recv.party),
                    "tid": tid_for(recv.party, recv.track),
                }
            )

    if critical is not None:
        reports = getattr(critical, "reports", None)
        if reports is None:
            reports = [critical]
        cp_pid = pid_for("critical-path")
        for report in reports:
            if report is None:
                continue
            tid = tid_for("critical-path", report.anchor)
            for segment in report.segments:
                trace_events.append(
                    {
                        "ph": "X",
                        "name": segment.blame,
                        "cat": "critical-path",
                        "ts": segment.start_ns / 1_000,
                        "dur": segment.duration_ns / 1_000,
                        "pid": cp_pid,
                        "tid": tid,
                        "args": {"kind": segment.kind, "anchor": report.anchor},
                    }
                )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------- prometheus

def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value: Any) -> str:
    """Escape a label value per the text exposition format.

    Order matters: backslashes first, else the escapes themselves get
    re-escaped.  Newlines must become the two-character sequence ``\\n``
    or the line-oriented format breaks mid-series.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict[str, Any], extra: dict[str, Any] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_name(str(k))}="{_prom_escape(merged[k])}"' for k in sorted(merged)
    )
    return "{" + inner + "}"


def _prom_header(lines: list[str], seen: set[str], name: str, source: str,
                 kind: str) -> None:
    if name not in seen:
        seen.add(name)
        lines.append(f"# HELP {name} {source} ({kind})")
        lines.append(f"# TYPE {name} {kind}")


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Prometheus text exposition format of the registry's current state.

    Every family gets ``# HELP``/``# TYPE`` lines, and gauges and
    histograms whose names carry the repo-native ``_ns`` suffix also
    emit a derived ``_seconds`` family (values divided by 1e9) so the
    exposition parses cleanly under promtool's unit conventions.  The
    base ``_ns`` series are kept — dashboards and the CI gates key on
    them — and the derived families are grouped after the base pass so
    each family's samples stay contiguous.
    """
    lines: list[str] = []
    derived: list[str] = []
    seen_types: set[str] = set()
    derived_seen: set[str] = set()
    # Sort by the canonical series key *string*: total, deterministic,
    # and safe with mixed-type label values (tuple-of-items sorting
    # raises TypeError comparing an int label against a str one).
    for instrument in sorted(metrics, key=lambda i: metric_key(i.name, i.labels)):
        name = _prom_name(instrument.name)
        _prom_header(lines, seen_types, name, instrument.name, instrument.kind)
        secs = name[: -len("_ns")] + "_seconds" if name.endswith("_ns") else None
        if isinstance(instrument, (CounterMetric, GaugeMetric)):
            labels = _prom_labels(instrument.labels)
            lines.append(f"{name}{labels} {instrument.value}")
            if secs and isinstance(instrument, GaugeMetric):
                _prom_header(derived, derived_seen, secs, instrument.name, "gauge")
                derived.append(f"{secs}{labels} {instrument.value / 1e9}")
        elif isinstance(instrument, HistogramMetric):
            running = 0
            for bound, count in zip(instrument.buckets, instrument.bucket_counts):
                running += count
                lines.append(
                    f"{name}_bucket{_prom_labels(instrument.labels, {'le': bound})} {running}"
                )
            lines.append(
                f"{name}_bucket{_prom_labels(instrument.labels, {'le': '+Inf'})} {instrument.count}"
            )
            lines.append(f"{name}_sum{_prom_labels(instrument.labels)} {instrument.sum}")
            lines.append(f"{name}_count{_prom_labels(instrument.labels)} {instrument.count}")
            if secs:
                _prom_header(derived, derived_seen, secs, instrument.name, "histogram")
                running = 0
                for bound, count in zip(instrument.buckets, instrument.bucket_counts):
                    running += count
                    derived.append(
                        f"{secs}_bucket{_prom_labels(instrument.labels, {'le': bound / 1e9})} {running}"
                    )
                derived.append(
                    f"{secs}_bucket{_prom_labels(instrument.labels, {'le': '+Inf'})} {instrument.count}"
                )
                derived.append(
                    f"{secs}_sum{_prom_labels(instrument.labels)} {instrument.sum / 1e9}"
                )
                derived.append(
                    f"{secs}_count{_prom_labels(instrument.labels)} {instrument.count}"
                )
    lines.extend(derived)
    return "\n".join(lines) + ("\n" if lines else "")
