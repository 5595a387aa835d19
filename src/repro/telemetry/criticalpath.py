"""Critical-path analysis: who to blame for every nanosecond.

Given an anchor span (``migration.run`` for total time,
``migration.stop_and_copy`` for downtime) the engine partitions the
anchor's interval into segments and blames each segment on exactly one
*unit* — the innermost span or wire transfer covering it.  Because the
segments partition the interval, their durations sum to the anchor's
duration **by construction**: 100% of total time and 100% of downtime
are always attributed, and the ranked contribution report cannot drift
from the headline gauges.

The blame rule for one elementary slice is deterministic:

1. among all units covering the slice, prefer the latest-started
   (innermost nesting on the virtual clock);
2. at equal start, prefer a wire transfer over a span (the transfer is
   the payload of the step that issued it);
3. then prefer the shorter unit, then the lower unit id — total order,
   no ties.

The same walk over the whole run, folded by span ancestry, is the run's
profile (:func:`profile_stacks`, ``repro profile``): exact weights that
sum to the run's virtual duration, with no sampling interval.

Everything here is a pure function of recorded state: building a report
never advances the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.telemetry.causal import CausalDag, build_dag
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network, TransferRecord
    from repro.telemetry import Telemetry

#: Anchors of the two headline walks (§VIII figures).
ANCHOR_TOTAL = "migration.run"
ANCHOR_DOWNTIME = "migration.stop_and_copy"


@dataclass(frozen=True)
class _Unit:
    """One blame candidate: a finished span or a wire transfer."""

    kind: str  #: "span" | "transfer"
    name: str  #: e.g. "source/migration.step.checkpoint" or "wire/kmigrate"
    start_ns: int
    end_ns: int
    uid: int  #: span_id or wire seq (namespaced by kind)

    @property
    def sort_key(self) -> tuple:
        # Innermost-first: latest start, transfers beat spans, shorter
        # beats longer, then a stable id tiebreak.
        return (
            self.start_ns,
            1 if self.kind == "transfer" else 0,
            -(self.end_ns - self.start_ns),
            -self.uid,
        )


@dataclass(frozen=True)
class Segment:
    """One attributed slice of the anchor interval."""

    start_ns: int
    end_ns: int
    blame: str
    kind: str
    uid: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, Any]:
        return {
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "blame": self.blame,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class Contribution:
    """One blamed unit's total share of the anchor interval."""

    name: str
    kind: str
    duration_ns: int
    share_pct: float
    segments: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "duration_ns": self.duration_ns,
            "share_pct": round(self.share_pct, 4),
            "segments": self.segments,
        }


@dataclass
class CriticalPathReport:
    """The attribution of one anchor span's interval."""

    anchor: str
    start_ns: int
    end_ns: int
    segments: list[Segment] = field(default_factory=list)
    contributions: list[Contribution] = field(default_factory=list)
    #: Every name on the blame paths (blamed units plus their span
    #: ancestors) — what ``--require-blame`` matches against.
    blame_path_names: list[str] = field(default_factory=list)

    @property
    def total_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def attributed_ns(self) -> int:
        return sum(s.duration_ns for s in self.segments)

    def blames(self, query: str) -> bool:
        """True when ``query`` appears in any blamed unit or ancestor name."""
        return any(query in name for name in self.blame_path_names)

    def as_dict(self) -> dict[str, Any]:
        return {
            "anchor": self.anchor,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "total_ns": self.total_ns,
            "attributed_ns": self.attributed_ns,
            "segments": [s.as_dict() for s in self.segments],
            "contributions": [c.as_dict() for c in self.contributions],
        }


def _span_unit_name(span: "Span") -> str:
    base = f"{span.party}/{span.name}"
    return f"{base}#{span.track}" if span.track else base


def attribute_interval(
    anchor_span: "Span",
    spans: list["Span"],
    transfers: list["TransferRecord"],
) -> CriticalPathReport:
    """Partition the anchor span's interval among its covering units."""
    if not anchor_span.finished:
        raise ValueError(f"anchor span {anchor_span.name!r} is still open")
    start, end = anchor_span.start_ns, anchor_span.end_ns
    units: list[_Unit] = []
    for span in spans:
        if not span.finished or span.end_ns <= start or span.start_ns >= end:
            continue
        units.append(
            _Unit(
                "span",
                _span_unit_name(span),
                max(span.start_ns, start),
                min(span.end_ns, end),
                span.span_id,
            )
        )
    for record in transfers:
        t_done = record.t_done_ns
        if t_done is None or t_done <= start or record.t_send_ns >= end:
            continue
        if record.t_send_ns == t_done:
            continue  # zero-width: nothing to blame it for
        units.append(
            _Unit(
                "transfer",
                f"wire/{record.label}",
                max(record.t_send_ns, start),
                min(t_done, end),
                record.seq,
            )
        )

    bounds = sorted({start, end, *(u.start_ns for u in units), *(u.end_ns for u in units)})
    segments: list[Segment] = []
    for a, b in zip(bounds, bounds[1:]):
        covering = [u for u in units if u.start_ns <= a and u.end_ns >= b]
        # The anchor itself covers everything, so `covering` is never
        # empty — unattributed time blames the anchor span.
        winner = max(covering, key=lambda u: u.sort_key)
        if (
            segments
            and segments[-1].kind == winner.kind
            and segments[-1].uid == winner.uid
            and segments[-1].end_ns == a
        ):
            last = segments[-1]
            segments[-1] = Segment(last.start_ns, b, last.blame, last.kind, last.uid)
        else:
            segments.append(Segment(a, b, winner.name, winner.kind, winner.uid))

    contributions = _rank(segments, end - start)
    blame_paths = _blame_path_names(segments, spans)
    return CriticalPathReport(
        anchor=anchor_span.name,
        start_ns=start,
        end_ns=end,
        segments=segments,
        contributions=contributions,
        blame_path_names=blame_paths,
    )


def _rank(segments: list[Segment], total_ns: int) -> list[Contribution]:
    grouped: dict[tuple[str, str], list[Segment]] = {}
    for segment in segments:
        grouped.setdefault((segment.blame, segment.kind), []).append(segment)
    ranked = [
        Contribution(
            name=name,
            kind=kind,
            duration_ns=sum(s.duration_ns for s in group),
            share_pct=(
                100.0 * sum(s.duration_ns for s in group) / total_ns if total_ns else 0.0
            ),
            segments=len(group),
        )
        for (name, kind), group in grouped.items()
    ]
    ranked.sort(key=lambda c: (-c.duration_ns, c.name))
    return ranked


def _blame_path_names(segments: list[Segment], spans: list["Span"]) -> list[str]:
    """Blamed names plus every ancestor span name on their paths."""
    by_id = {s.span_id: s for s in spans}
    names: list[str] = []

    def add(name: str) -> None:
        if name not in names:
            names.append(name)

    for segment in segments:
        add(segment.blame)
        span = by_id.get(segment.uid) if segment.kind == "span" else None
        while span is not None:
            add(_span_unit_name(span))
            span = by_id.get(span.parent_id) if span.parent_id is not None else None
    return names


def critical_path(
    telemetry: "Telemetry", network: "Network", anchor: str = ANCHOR_TOTAL
) -> CriticalPathReport:
    """Attribution report for the last finished ``anchor`` span."""
    anchor_span = telemetry.tracer.last(anchor)
    if anchor_span is None:
        raise ValueError(f"no finished {anchor!r} span in this trace")
    return attribute_interval(anchor_span, telemetry.tracer.spans, network.log)


#: Frame for virtual time that no span or wire transfer covers.
IDLE_FRAME = "<idle>"


def profile_stacks(
    telemetry: "Telemetry", network: "Network"
) -> dict[tuple[str, ...], int]:
    """The whole run, t=0 to now, as folded stacks with exact weights.

    One :func:`attribute_interval` walk over the run: a span segment
    folds to ``(party, root, ..., span)``, a wire segment to its sending
    span's stack plus its ``wire/<label>`` leaf, and uncovered time to
    ``(<idle>,)``.  The segments partition the run, so the weights sum
    to ``clock.now_ns`` exactly.
    """
    spans = telemetry.tracer.spans
    by_id = {span.span_id: span for span in spans}
    # The run's id is past every span's, so it loses every blame tie and
    # takes only the time nothing else covers.
    run = Span(max(by_id, default=0) + 1, IDLE_FRAME, "", "", 0, telemetry.clock.now_ns)
    senders = {record.seq: record.parent_span_id for record in network.log}
    stacks: dict[tuple[str, ...], int] = {}
    for segment in attribute_interval(run, [run, *spans], network.log).segments:
        if segment.kind == "transfer":
            frames = _stack(by_id.get(senders[segment.uid]), by_id) + (segment.blame,)
        else:
            frames = _stack(by_id.get(segment.uid), by_id)
        stacks[frames] = stacks.get(frames, 0) + segment.duration_ns
    return stacks


def _stack(span: Span | None, by_id: dict[int, Span]) -> tuple[str, ...]:
    if span is None:
        return (IDLE_FRAME,)
    party = span.party
    names: list[str] = []
    while span is not None:
        names.append(span.name)
        span = by_id.get(span.parent_id)
    return (party, *reversed(names))


def folded(stacks: dict[tuple[str, ...], int]) -> str:
    """Collapsed-stack text for flamegraph tools: ``a;b;c weight`` lines."""
    return "".join(
        f"{';'.join(frames)} {weight}\n" for frames, weight in sorted(stacks.items())
    )


@dataclass
class ExplainReport:
    """Both headline walks plus the DAG's fault summary."""

    total: CriticalPathReport
    downtime: CriticalPathReport
    dag: CausalDag
    figures: dict[str, Any] = field(default_factory=dict)

    @property
    def reports(self) -> list[CriticalPathReport]:
        return [self.total, self.downtime]

    def blames(self, query: str) -> bool:
        return self.total.blames(query) or self.downtime.blames(query)

    # ------------------------------------------------------ counterfactuals
    def counterfactuals(self) -> list[dict[str, Any]]:
        """One "if this unit were free" estimate per downtime contributor."""
        return [
            {
                "unit": c.name,
                "kind": c.kind,
                "saved_ns": c.duration_ns,
                "downtime_ns": self.downtime.total_ns - c.duration_ns,
                "share_pct": round(c.share_pct, 4),
            }
            for c in self.downtime.contributions
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "figures": self.figures,
            "total": self.total.as_dict(),
            "downtime": self.downtime.as_dict(),
            "counterfactuals": self.counterfactuals(),
            "dag_health": self.dag.health(),
            "trace_ids": self.dag.trace_ids(),
        }

    # ------------------------------------------------------------ rendering
    def render_text(self) -> str:
        lines: list[str] = []
        figures = self.figures
        lines.append("=== repro explain: migration critical path ===")
        if figures:
            lines.append(
                f"downtime {figures.get('downtime_ns', 0) / 1e6:.3f} ms | "
                f"total {figures.get('total_ns', 0) / 1e6:.3f} ms | "
                f"transferred {int(figures.get('transferred_bytes', 0))} bytes"
            )
        for title, report in (("total time", self.total), ("downtime", self.downtime)):
            lines.append("")
            lines.append(
                f"-- {title}: {report.anchor} "
                f"[{report.start_ns}..{report.end_ns}] = {report.total_ns} ns "
                f"({report.attributed_ns} ns attributed, "
                f"{100.0 * report.attributed_ns / report.total_ns if report.total_ns else 0.0:.1f}%)"
            )
            for rank, contribution in enumerate(report.contributions, 1):
                lines.append(
                    f"  {rank:2d}. {contribution.name:45s} "
                    f"{contribution.duration_ns:>12d} ns  "
                    f"{contribution.share_pct:6.2f}%  "
                    f"({contribution.segments} segment"
                    f"{'s' if contribution.segments != 1 else ''})"
                )
        lines.append("")
        lines.append("-- counterfactuals (downtime if the unit were free):")
        for entry in self.counterfactuals()[:5]:
            lines.append(
                f"   if {entry['unit']:43s} were free: "
                f"downtime = {entry['downtime_ns'] / 1e6:.3f} ms "
                f"(-{entry['saved_ns'] / 1e6:.3f} ms)"
            )
        health = self.dag.health()
        lines.append("")
        lines.append(
            f"-- causal DAG: {health['spans']} spans, {health['transfers']} transfers, "
            f"{health['edges']} edges"
        )
        for kind in ("broken_edges", "duplicate_edges", "reordered_transfers"):
            entries = health[kind]
            label = kind.replace("_", " ")
            if entries:
                detail = ", ".join(e["label"] for e in entries)
                lines.append(f"   {label}: {len(entries)} ({detail})")
            else:
                lines.append(f"   {label}: none")
        return "\n".join(lines) + "\n"


def explain_migration(telemetry: "Telemetry", network: "Network") -> ExplainReport:
    """The ``repro explain`` payload for one enclave-protocol run."""
    metrics = telemetry.metrics
    report = ExplainReport(
        total=critical_path(telemetry, network, ANCHOR_TOTAL),
        downtime=critical_path(telemetry, network, ANCHOR_DOWNTIME),
        dag=build_dag(telemetry, network),
        figures={
            "downtime_ns": metrics.value("migration.downtime_ns", default=0),
            "total_ns": metrics.value("migration.total_ns", default=0),
            "transferred_bytes": metrics.value("migration.transferred_bytes", default=0),
        },
    )
    return report
