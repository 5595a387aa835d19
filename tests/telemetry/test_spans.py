"""The span tracer: nesting, parenting, its home on the event trace."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.trace import EventTrace
from repro.telemetry.spans import SpanError, Tracer


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestNesting:
    def test_parent_is_innermost_on_same_track(self, clock, tracer):
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        assert inner.parent_id == outer.span_id
        tracer.end(inner)
        tracer.end(outer)
        assert outer.parent_id is None

    def test_tracks_are_independent_stacks(self, clock, tracer):
        a = tracer.start("ckpt", party="source", track="1")
        b = tracer.start("ckpt", party="source", track="2")
        # Closing a before b is fine: different tracks, no LIFO coupling.
        tracer.end(a)
        tracer.end(b)
        assert a.parent_id is None and b.parent_id is None

    def test_out_of_order_close_raises(self, tracer):
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(SpanError, match="out of order"):
            tracer.end(outer)

    def test_double_close_raises(self, tracer):
        span = tracer.start("s")
        tracer.end(span)
        with pytest.raises(SpanError, match="twice"):
            tracer.end(span)

    def test_duration_counts_virtual_time(self, clock, tracer):
        span = tracer.start("s")
        clock.advance(1234)
        tracer.end(span)
        assert span.duration_ns == 1234

    def test_open_span_has_no_duration(self, tracer):
        span = tracer.start("s")
        assert not span.finished
        with pytest.raises(ValueError):
            _ = span.duration_ns


class TestContextManager:
    def test_exception_marks_error_status(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"

    def test_clean_exit_is_ok(self, tracer):
        with tracer.span("s", party="agent", foo=1) as span:
            pass
        assert span.status == "ok"
        assert span.attrs == {"foo": 1}


class TestTraceWiring:
    def test_bare_trace_has_a_tracer_and_spans_emit_no_events(self, clock):
        trace = EventTrace(clock)
        with trace.tracer.span("migration.run", party="source", track="3") as span:
            clock.advance(5)
        assert span.finished and span.duration_ns == 5
        assert trace.tracer.spans == [span]
        assert trace.events == []


class TestQueries:
    def test_find_first_last(self, clock, tracer):
        for i in range(3):
            with tracer.span("round", n=i):
                clock.advance(10)
        assert len(tracer.find("round")) == 3
        assert tracer.first("round").attrs["n"] == 0
        assert tracer.last("round").attrs["n"] == 2
        assert tracer.first("missing") is None

    def test_children_of_and_roots(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.children_of(outer)] == ["inner"]
        assert [s.name for s in tracer.roots()] == ["outer"]

    def test_clear_preserves_open_spans(self, tracer):
        open_span = tracer.start("open")
        with tracer.span("closed"):
            pass
        tracer.clear()
        assert tracer.spans == [open_span]
        tracer.end(open_span)  # still closable: the stack survived
