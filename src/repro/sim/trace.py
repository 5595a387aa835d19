"""Structured event tracing and metric counters.

The experiments assert on traces ("the source enclave never resumed after
self-destroy", "K_migrate was transferred exactly once") and the benchmark
harness reads metrics ("bytes on the wire", "downtime window") out of them.

Counters are backed by a :class:`~repro.telemetry.metrics.MetricsRegistry`
(the trace's ``metrics`` attribute), which the telemetry layer shares for
its own typed instruments; the old ``count``/``counter`` API is preserved
on top of it.  Every trace owns a :class:`~repro.telemetry.spans.Tracer`
(``trace.tracer``) on the same clock, so any component holding a trace
can open spans.  Spans are not events: they live in the tracer only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.sim.clock import VirtualClock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


@dataclass(frozen=True)
class Event:
    """One traced event at a point in virtual time."""

    t_ns: int
    category: str
    name: str
    payload: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.t_ns / 1000:.1f}us] {self.category}.{self.name} {self.payload}"


class EventsView(Sequence):
    """A read-only, live view of the trace's event list.

    Replaces the full-list copy the old ``events`` property made on every
    access; it indexes and iterates the underlying storage directly and
    compares equal to plain lists so existing assertions keep working.
    """

    __slots__ = ("_events",)

    def __init__(self, events: list[Event]) -> None:
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventsView):
            return self._events == other._events
        if isinstance(other, (list, tuple)):
            return list(self._events) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventsView of {len(self._events)} events>"


class EventTrace:
    """An append-only trace of events plus named numeric counters."""

    def __init__(self, clock: VirtualClock, metrics: MetricsRegistry | None = None) -> None:
        self._clock = clock
        self._events: list[Event] = []
        self._observers: list[Any] = []
        #: Typed metrics registry backing :meth:`count`; the telemetry
        #: layer shares this registry for spans-adjacent instruments.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The span tracer on this trace's clock.
        self.tracer = Tracer(clock)

    # ---------------------------------------------------------------- record
    def emit(self, category: str, name: str, /, **payload: Any) -> Event:
        """Record an event at the current virtual time."""
        event = Event(self._clock.now_ns, category, name, payload)
        self._events.append(event)
        for observer in self._observers:
            observer(event)
        return event

    def add_observer(self, observer) -> None:
        """Call ``observer(event)`` on every future emit (live monitors).

        Observers survive :meth:`clear` — they watch the stream, not the
        stored history."""
        self._observers.append(observer)

    def count(self, counter: str, delta: int = 1) -> None:
        """Add ``delta`` to the named counter."""
        self.metrics.counter(counter).inc(delta)

    # ---------------------------------------------------------------- query
    @property
    def events(self) -> EventsView:
        return EventsView(self._events)

    def counter(self, name: str) -> int:
        return int(self.metrics.value(name, default=0))

    def select(self, category: str | None = None, name: str | None = None) -> Iterator[Event]:
        """Iterate events matching the given category and/or name."""
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            yield event

    def first(self, category: str | None = None, name: str | None = None) -> Event | None:
        return next(self.select(category, name), None)

    def last(self, category: str | None = None, name: str | None = None) -> Event | None:
        found = None
        for event in self.select(category, name):
            found = event
        return found

    def count_of(self, category: str | None = None, name: str | None = None) -> int:
        return sum(1 for _ in self.select(category, name))

    def tally(self, category: str) -> Counter[str]:
        """Event-name histogram for one category (e.g. every ``"fault"``
        the injector fired, or every degraded-mode ``"migration"`` event)."""
        return Counter(event.name for event in self.select(category))

    def clear(self) -> None:
        """Drop stored events and zero every metric.

        Resetting the registry matters for observers that read counters
        mid-run: a cleared trace with stale counters would silently report
        the previous run's numbers."""
        self._events.clear()
        self.metrics.reset()
        self.tracer.clear()
