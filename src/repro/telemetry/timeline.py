"""Fold spans + events from every party into one causal phase timeline.

The paper's evaluation reads three headline quantities off a migration —
downtime, total migration time, transferred bytes (Figs. 9-11) — plus a
per-phase breakdown of where they went.  The reconstructor computes all
of them from the telemetry of one run as a single structured report, so
benchmarks, the CLI and CI diff one artifact instead of grepping events.

Phase mapping (span name → phase):

* enclave migration (``MigrationOrchestrator``): every
  ``migration.step.<step>`` span is the phase ``<step>`` — the
  orchestrator names those spans from the protocol table's rows
  (:data:`repro.migration.protocol.STEPS`), so a step shows up here
  exactly when a run takes it — plus the enclosing
  ``migration.stop_and_copy`` window, whose duration *is* the
  ``migration.downtime_ns`` metric;
* whole-VM migration (``QemuMonitor``): ``vm.prepare``, the
  ``vm.precopy.round`` series, ``vm.stop_and_copy`` and ``vm.restore``
  (``vm-restore``: each enclave's step phases fall inside it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry
    from repro.telemetry.spans import Span

#: Span-name prefix of the enclave protocol steps; the rest is the phase.
STEP_PREFIX = "migration.step."

#: The other span names that become phases of the reconstructed timeline.
PHASE_SPANS = {
    "vm.prepare": "prepare",
    "vm.precopy.round": "pre-copy round",
    "vm.stop_and_copy": "stop-and-copy",
    "vm.restore": "vm-restore",
    "migration.stop_and_copy": "stop-and-copy",
}


@dataclass(frozen=True)
class Phase:
    """One reconstructed phase of the migration timeline."""

    name: str
    party: str
    start_ns: int
    end_ns: int
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "party": self.party,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


@dataclass
class TimelineReport:
    """The paper's headline figures plus the causal phase breakdown."""

    phases: list[Phase]
    downtime_ns: int
    total_ns: int
    transferred_bytes: int
    attempts: int
    aborted: bool
    faults_injected: dict[str, int]

    @property
    def phase_names(self) -> list[str]:
        return [p.name for p in self.phases]

    def per_phase_ns(self) -> dict[str, int]:
        """Total virtual time spent in each phase name (summed over rounds
        and retries)."""
        totals: dict[str, int] = {}
        for phase in self.phases:
            totals[phase.name] = totals.get(phase.name, 0) + phase.duration_ns
        return totals

    def as_dict(self) -> dict[str, Any]:
        return {
            "figures": {
                "downtime_ns": self.downtime_ns,
                "total_ns": self.total_ns,
                "transferred_bytes": self.transferred_bytes,
                "attempts": self.attempts,
                "aborted": self.aborted,
            },
            "per_phase_ns": self.per_phase_ns(),
            "faults_injected": dict(self.faults_injected),
            "phases": [p.as_dict() for p in self.phases],
        }


def reconstruct(telemetry: "Telemetry") -> TimelineReport:
    """Build the timeline report for the migration run(s) in ``telemetry``."""
    metrics = telemetry.metrics
    spans = sorted(telemetry.tracer.finished(), key=lambda s: (s.start_ns, s.span_id))
    phases = [phase for phase in map(_phase_from, spans) if phase is not None]
    downtime_ns = int(metrics.value("migration.downtime_ns", default=0))
    if downtime_ns == 0:
        # No completed run set the gauge; fall back to the stop-and-copy
        # window of whatever (possibly failed) attempt got furthest.
        windows = [p.duration_ns for p in phases if p.name == "stop-and-copy"]
        downtime_ns = max(windows, default=0)
    total_ns = int(metrics.value("migration.total_ns", default=0))
    if total_ns == 0 and phases:
        total_ns = max(p.end_ns for p in phases) - min(p.start_ns for p in phases)
    transferred = int(metrics.value("migration.transferred_bytes", default=0))
    if transferred == 0:
        transferred = int(metrics.sum_across_labels("wire.bytes"))
    faults = {
        instrument.labels.get("kind", "?"): instrument.value
        for instrument in metrics
        if instrument.name == "faults.injected"
    }
    return TimelineReport(
        phases=phases,
        downtime_ns=downtime_ns,
        total_ns=total_ns,
        transferred_bytes=transferred,
        attempts=int(metrics.value("migration.attempts_total", default=0)),
        aborted=metrics.value("migration.aborts_total", default=0) > 0,
        faults_injected=faults,
    )


def _phase_from(span: "Span") -> Phase | None:
    if span.name.startswith(STEP_PREFIX):
        name = span.name.removeprefix(STEP_PREFIX)
    elif span.name in PHASE_SPANS:
        name = PHASE_SPANS[span.name]
        if span.name == "vm.precopy.round":
            name = f"{name} {span.attrs.get('round', '?')}"
    else:
        return None
    return Phase(
        name=name,
        party=span.party,
        start_ns=span.start_ns,
        end_ns=span.end_ns,  # finished() guarantees end_ns is set
        status=span.status,
        attrs=dict(span.attrs),
    )


def well_nested(spans: list["Span"]) -> bool:
    """True iff every pair of finished spans on one (party, track) either
    nests or is disjoint — the property the tracer enforces structurally
    and the fault-matrix property test re-checks from the outside."""
    by_track: dict[tuple[str, str], list["Span"]] = {}
    for span in spans:
        if span.finished:
            by_track.setdefault((span.party, span.track), []).append(span)
    for track_spans in by_track.values():
        for a in track_spans:
            for b in track_spans:
                if a.span_id >= b.span_id:
                    continue
                # overlap that is neither containment nor disjointness
                if a.start_ns < b.start_ns < a.end_ns < b.end_ns:
                    return False
                if b.start_ns < a.start_ns < b.end_ns < a.end_ns:
                    return False
    return True
