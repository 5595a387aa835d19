"""Exporter edge cases: escaping and nesting across parties."""

from repro.telemetry.exporters import to_chrome_trace, to_prometheus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runs import run_seeded_migration


class TestPrometheusEscaping:
    def test_label_values_with_quotes_backslashes_newlines(self):
        registry = MetricsRegistry()
        registry.counter("edge.total", path='C:\\tmp\\"x"', note="a\nb").inc(3)
        text = to_prometheus(registry)
        line = next(l for l in text.splitlines() if l.startswith("edge_total"))
        assert '\\\\' in line  # backslash escaped
        assert '\\"' in line  # quote escaped
        assert "\n" not in line  # newline folded into the \n escape
        assert "\\n" in line
        assert line.endswith(" 3")

    def test_escaping_is_idempotent_on_clean_values(self):
        registry = MetricsRegistry()
        registry.gauge("g", party="source").set(1)
        assert 'party="source"' in to_prometheus(registry)

    def test_histogram_le_labels_still_render(self):
        registry = MetricsRegistry()
        registry.histogram("h", party='s"rc').observe(5)
        text = to_prometheus(registry)
        assert 'party="s\\"rc"' in text
        assert "h_bucket" in text and 'le="+Inf"' in text


class TestChromeTraceNesting:
    def test_spans_nest_within_their_party_process(self):
        tb = run_seeded_migration(seed=1)
        trace = to_chrome_trace(tb.telemetry, network=tb.network)
        events = trace["traceEvents"]
        by_name = {}
        pid_names = {}
        for event in events:
            if event.get("ph") == "M" and event["name"] == "process_name":
                pid_names[event["pid"]] = event["args"]["name"]
        for event in events:
            if event.get("ph") == "X" and event.get("cat") == "span":
                by_name.setdefault(event["name"], []).append(event)
        # journal.commit slices exist on more than one party's process.
        commits = by_name["journal.commit"]
        commit_parties = {pid_names[e["pid"]] for e in commits}
        assert {"source", "target", "orchestrator"} <= commit_parties
        # Every source-party journal.commit nests inside a span on the
        # same pid+tid that fully contains it (well-formed nesting).
        spans = [e for events_ in by_name.values() for e in events_]
        for commit in commits:
            enclosing = [
                s
                for s in spans
                if s is not commit
                and s["pid"] == commit["pid"]
                and s["tid"] == commit["tid"]
                and s["ts"] <= commit["ts"]
                and s["ts"] + s["dur"] >= commit["ts"] + commit["dur"]
            ]
            if pid_names[commit["pid"]] == "orchestrator":
                assert enclosing, "orchestrator commits must nest in protocol spans"

    def test_wire_flow_arrows_bind_sender_and_receiver(self):
        tb = run_seeded_migration(seed=1)
        events = to_chrome_trace(tb.telemetry, network=tb.network)["traceEvents"]
        starts = {e["id"] for e in events if e.get("ph") == "s"}
        finishes = {e["id"] for e in events if e.get("ph") == "f"}
        assert starts and starts == finishes

