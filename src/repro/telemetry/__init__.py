"""Migration telemetry: spans, typed metrics, timelines, exporters.

One :class:`Telemetry` object per testbed bundles the span tracer and the
metrics registry (shared with the event trace's counters) and installs a
trace observer that folds injected faults into ``faults.injected{kind=}``.
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
        self.tracer = Tracer(clock, trace)
        trace.tracer = self.tracer
        trace.add_observer(self._on_event)
        # The black-box recorder rides along on every telemetry surface
        # (bounded rings; costs nothing until something goes wrong).
        from repro.telemetry.flightrecorder import FlightRecorder

        self.flightrecorder = FlightRecorder(self)
        #: Sampling profiler, attached lazily by :meth:`ensure_profiler`.
        self.profiler = None

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

    # ------------------------------------------------------------- profiling
    def ensure_profiler(self, interval_ns: int | None = None):
        """The testbed's sampling profiler, created on first use."""
        from repro.telemetry.profiler import DEFAULT_INTERVAL_NS, SamplingProfiler

        if self.profiler is None:
            self.profiler = SamplingProfiler(
                self, interval_ns or DEFAULT_INTERVAL_NS
            )
        return self.profiler

    # ---------------------------------------------------------------- observer
    def _on_event(self, event) -> None:
        # Fold every injected fault into a typed counter so soak runs and
        # the CLI report them without grepping the event list.
        if event.category == "fault":
            self.metrics.counter("faults.injected", kind=event.name).inc()


def ensure_telemetry(testbed) -> Telemetry:
    """The testbed's telemetry, created and attached on first use.

    Components instrumented with spans call this instead of assuming
    :func:`~repro.migration.testbed.build_testbed` ran; hand-assembled
    testbeds get a working telemetry layer the first time anything needs
    one.
    """
    telemetry = getattr(testbed, "telemetry", None)
    if telemetry is None:
        telemetry = Telemetry(testbed.clock, testbed.trace)
        testbed.telemetry = telemetry
    return telemetry
