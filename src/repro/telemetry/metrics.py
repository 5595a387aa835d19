"""Typed metrics: counters, gauges and fixed-bucket histograms.

Replaces the ad-hoc ``collections.Counter`` that used to live inside
:class:`~repro.sim.trace.EventTrace`.  Naming scheme (documented in
``docs/OBSERVABILITY.md``):

* metric names are dot-separated, lowest-frequency term first
  (``migration.downtime_ns``, ``wire.bytes``, ``journal.commit_latency_ns``);
* monotonically increasing counters end in ``_total`` or name the unit
  they accumulate (``wire.bytes``);
* label sets are rendered ``name{key=value,key=value}`` with keys sorted,
  so one (name, labels) pair is exactly one time series.

Every instrument is *typed*: asking for ``counter("x")`` after ``gauge("x")``
was registered is a programming error and raises immediately — the same
name must always mean the same kind of quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

#: Default histogram bucket ladder, in nanoseconds: 1us .. 10s, decades.
DEFAULT_NS_BUCKETS = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
)


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical ``name{key=value}`` series key (keys sorted, no spaces)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class CounterMetric:
    """A monotonically increasing count (events, bytes, retries)."""

    name: str
    labels: dict[str, Any]
    value: int = 0

    kind = "counter"

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name} cannot decrease (delta={delta})")
        self.value += delta

    def reset(self) -> None:
        self.value = 0

    def snapshot_value(self) -> int:
        return self.value


@dataclass
class GaugeMetric:
    """A point-in-time quantity (downtime of the last run, live instances)."""

    name: str
    labels: dict[str, Any]
    value: float = 0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, delta: float = 1) -> None:
        self.value += delta

    def dec(self, delta: float = 1) -> None:
        self.value -= delta

    def reset(self) -> None:
        self.value = 0

    def snapshot_value(self) -> float:
        return self.value


@dataclass
class HistogramMetric:
    """Fixed-bucket distribution (latencies); buckets are upper bounds."""

    name: str
    labels: dict[str, Any]
    buckets: tuple[float, ...] = DEFAULT_NS_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        if not self.bucket_counts:
            # one slot per bound plus the +Inf overflow slot
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot_value(self) -> dict[str, Any]:
        cumulative, running = {}, 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            cumulative[bound] = running
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": cumulative,
        }


class MetricsRegistry:
    """All instruments of one testbed, addressable by name + labels."""

    def __init__(self) -> None:
        self._instruments: dict[str, CounterMetric | GaugeMetric | HistogramMetric] = {}

    # ------------------------------------------------------------ instruments
    def _get_or_make(self, cls, name: str, labels: dict[str, Any], **kwargs):
        key = metric_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name=name, labels=dict(labels), **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {key!r} is a {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        return self._get_or_make(CounterMetric, name, labels)

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        return self._get_or_make(GaugeMetric, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> HistogramMetric:
        if buckets is None:
            return self._get_or_make(HistogramMetric, name, labels)
        return self._get_or_make(HistogramMetric, name, labels, buckets=tuple(buckets))

    # ---------------------------------------------------------------- queries
    def __iter__(self) -> Iterator[CounterMetric | GaugeMetric | HistogramMetric]:
        return iter(self._instruments.values())

    def __contains__(self, key: str) -> bool:
        return key in self._instruments

    def get(self, name: str, **labels: Any):
        """The instrument at ``name{labels}``, or None if never touched."""
        return self._instruments.get(metric_key(name, labels))

    def value(self, name: str, default: float = 0, **labels: Any):
        """The scalar value of a counter/gauge (histograms: the count)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return default
        if isinstance(instrument, HistogramMetric):
            return instrument.count
        return instrument.value

    def sum_across_labels(self, name: str) -> float:
        """Sum one counter/gauge family over every label combination."""
        return sum(
            i.value
            for i in self._instruments.values()
            if i.name == name and not isinstance(i, HistogramMetric)
        )

    def snapshot(self) -> dict[str, Any]:
        """One JSON-shaped mapping of every series to its current value.

        This is the structure the benchmark harness, run snapshots
        (``repro diff``) and flight-recorder dumps carry; keys are canonical ``name{labels}`` series
        keys, values are scalars (counter/gauge) or histogram dicts.
        """
        return {
            key: instrument.snapshot_value()
            for key, instrument in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        for instrument in self._instruments.values():
            instrument.reset()
