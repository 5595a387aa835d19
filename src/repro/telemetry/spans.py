"""Spans: attributed time intervals on the virtual clock.

A :class:`Span` is one named interval with a party ("source", "target",
"orchestrator", "agent"), an optional track within that party (used when
several enclaves on one party run concurrently — e.g. the per-enclave
two-phase checkpoint threads a VM migration interleaves), parent links,
and free-form attributes.  The :class:`Tracer` keeps one stack per
(party, track) so spans are *well-nested per track by construction*:
``end`` refuses to close a span that is not the innermost open one on its
track.

Every :class:`~repro.sim.trace.EventTrace` owns one tracer, and the
tracer is the only record of its spans: they are not copied into the
event stream.  Readers (exporters, the timeline, the critical path, the
flight recorder) query the tracer directly.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import VirtualClock


@dataclass
class Span:
    """One attributed interval of virtual time."""

    span_id: int
    name: str
    party: str
    track: str
    start_ns: int
    end_ns: int | None = None
    parent_id: int | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} (#{self.span_id}) is still open")
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end_ns}" if self.end_ns is not None else "…"
        return f"<Span #{self.span_id} {self.name} [{self.party}/{self.track}] {self.start_ns}-{end}>"


class SpanError(RuntimeError):
    """A span was closed out of nesting order, or twice."""


class Tracer:
    """Creates and closes spans against one virtual clock."""

    def __init__(self, clock: "VirtualClock") -> None:
        self.clock = clock
        self.spans: list[Span] = []  # every span ever started, in start order
        #: Trace context shared with the wire: the orchestrator stamps a
        #: fresh id per migration run, and every
        #: :meth:`repro.net.network.Network.transfer` copies it onto its
        #: wire record so spans and transfers correlate across parties.
        self.trace_id: str | None = None
        self._ids = itertools.count(1)
        self._stacks: dict[tuple[str, str], list[Span]] = {}
        #: Start-ordered open-span candidates for :meth:`active`; finished
        #: tails are popped lazily so the query stays O(1) amortized.
        self._activation: list[Span] = []

    # ------------------------------------------------------------ start / end
    def start(self, name: str, party: str = "orchestrator", track: str = "", **attrs: Any) -> Span:
        """Open a span now; its parent is the innermost open span on the
        same (party, track)."""
        stack = self._stacks.setdefault((party, str(track)), [])
        span = Span(
            span_id=next(self._ids),
            name=name,
            party=party,
            track=str(track),
            start_ns=self.clock.now_ns,
            parent_id=stack[-1].span_id if stack else None,
            attrs=dict(attrs),
        )
        stack.append(span)
        self.spans.append(span)
        self._activation.append(span)
        return span

    def end(self, span: Span, status: str = "ok", **attrs: Any) -> Span:
        """Close ``span`` now.  It must be the innermost open span on its
        track — out-of-order closes are a bug in the instrumentation, not
        a recoverable condition."""
        if span.finished:
            raise SpanError(f"span {span.name!r} (#{span.span_id}) ended twice")
        stack = self._stacks.get((span.party, span.track), [])
        if not stack or stack[-1] is not span:
            open_name = stack[-1].name if stack else "<none>"
            raise SpanError(
                f"span {span.name!r} closed out of order on track "
                f"{span.party}/{span.track or '-'} (innermost open: {open_name})"
            )
        stack.pop()
        span.end_ns = self.clock.now_ns
        span.status = status
        span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, party: str = "orchestrator", track: str = "", **attrs: Any):
        """Context manager form; an escaping exception marks status="error"."""
        span = self.start(name, party, track, **attrs)
        try:
            yield span
        except BaseException as exc:
            self.end(span, status="error", error=type(exc).__name__)
            raise
        else:
            self.end(span)

    # ---------------------------------------------------------------- queries
    def current(self, party: str = "orchestrator", track: str = "") -> Span | None:
        stack = self._stacks.get((party, str(track)))
        return stack[-1] if stack else None

    def active(self) -> Span | None:
        """The most recently started span that is still open, any track.

        This is what the network stamps onto a wire record as the
        transfer's causal parent: in the single-threaded simulation the
        innermost open span *is* the activity performing the send.
        """
        while self._activation and self._activation[-1].finished:
            self._activation.pop()
        return self._activation[-1] if self._activation else None

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.finished]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if not s.finished]

    def find(self, name: str, party: str | None = None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and (party is None or s.party == party) and s.finished
        ]

    def first(self, name: str, party: str | None = None) -> Span | None:
        found = self.find(name, party)
        return found[0] if found else None

    def last(self, name: str, party: str | None = None) -> Span | None:
        found = self.find(name, party)
        return found[-1] if found else None

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> Iterator[Span]:
        return (s for s in self.spans if s.parent_id is None)

    def clear(self) -> None:
        """Drop recorded spans (open spans on the stacks survive)."""
        open_ids = {s.span_id for stack in self._stacks.values() for s in stack}
        self.spans = [s for s in self.spans if s.span_id in open_ids]
        self._activation = [s for s in self.spans if not s.finished]
