"""Migration telemetry: spans, typed metrics, timelines, exporters.

One :class:`Telemetry` object per testbed bundles the event trace's span
tracer and metrics registry and installs a trace observer that folds
injected faults into ``faults.injected{kind=}``.
Everything runs on the virtual clock: telemetry never reads wall time, so
two runs with the same seed produce byte-identical artifacts.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the metric naming
scheme, and how the exporters map onto the paper's figures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    metric_key,
)
from repro.telemetry.spans import Span, SpanError, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import VirtualClock
    from repro.sim.trace import EventTrace
    from repro.telemetry.timeline import TimelineReport

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "Span",
    "SpanError",
    "Telemetry",
    "Tracer",
    "metric_key",
]


class Telemetry:
    """The telemetry surface of one testbed: tracer + metrics + trace."""

    def __init__(self, clock: "VirtualClock", trace: "EventTrace") -> None:
        self.clock = clock
        self.trace = trace
        self.metrics: MetricsRegistry = trace.metrics
        self.tracer: Tracer = trace.tracer
        trace.add_observer(self._on_event)
        # The black-box recorder rides along on every telemetry surface
        # (bounded rings; costs nothing until something goes wrong).
        from repro.telemetry.flightrecorder import FlightRecorder

        self.flightrecorder = FlightRecorder(self)

    # ------------------------------------------------------------ conveniences
    def span(self, name: str, party: str = "orchestrator", track: str = "", **attrs):
        return self.tracer.span(name, party, track, **attrs)

    def counter(self, name: str, **labels) -> CounterMetric:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> GaugeMetric:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> HistogramMetric:
        return self.metrics.histogram(name, **labels)

    def timeline(self) -> "TimelineReport":
        from repro.telemetry.timeline import reconstruct

        return reconstruct(self)

    # ---------------------------------------------------------------- observer
    def _on_event(self, event) -> None:
        # Fold every injected fault into a typed counter so soak runs and
        # the CLI report them without grepping the event list.
        if event.category == "fault":
            self.metrics.counter("faults.injected", kind=event.name).inc()

