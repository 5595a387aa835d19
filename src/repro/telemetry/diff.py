"""Run comparison: align two migration runs, rank what changed.

The paper's claims are differential (Fig. 9/10 compare cost curves
across configurations) and so are regressions: "fig10 downtime +18%"
is useless without *which span paid for it*.  This module captures a
run as a :class:`RunSnapshot` — figures, metrics, per-span aggregates,
and both critical-path walks, all keyed by stable names — and
:func:`diff_runs` aligns two snapshots into a :class:`RunDiff` whose
headline reads like::

    downtime +1.413 ms; 92.8% of the delta from source/journal.commit

Alignment is by name, not by time: span keys are ``party/name``,
critical-path contributions keep their blame-unit names, and metric
series keep their canonical ``name{labels}`` keys — all invariant
across cost-model perturbations of the same seeded protocol.

Snapshots serialize to JSON (committed as ``BENCH_baseline_run.json``
for the bench ratchet) and :func:`resolve_run` accepts either a
snapshot path or a run spec like ``seed=1,journal-cost-ns=524000`` that
re-runs the canonical migration under a perturbed cost model.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.migration.testbed import Testbed

#: The headline figures a diff leads with (all lower-is-better).
FIGURE_NAMES = ("downtime_ns", "total_ns", "transferred_bytes")


@dataclass
class RunSnapshot:
    """Everything `repro diff` needs to know about one run."""

    label: str = "run"
    meta: dict[str, Any] = field(default_factory=dict)
    #: migration.downtime_ns / total_ns / transferred_bytes scalars.
    figures: dict[str, float] = field(default_factory=dict)
    #: The full registry snapshot (``name{labels}`` → scalar | histogram).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: ``party/name`` → {"count", "total_ns"} over finished spans.
    spans: dict[str, dict[str, int]] = field(default_factory=dict)
    #: "total" / "downtime" → ranked contribution dicts (criticalpath).
    critical: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    # --------------------------------------------------------------- capture
    @classmethod
    def capture(
        cls, tb: "Testbed", label: str = "run", meta: dict | None = None
    ) -> "RunSnapshot":
        """Snapshot a finished run's testbed (pure read, no clock moves)."""
        telemetry = tb.telemetry
        metrics = telemetry.metrics
        spans: dict[str, dict[str, int]] = {}
        for span in telemetry.tracer.spans:
            if not span.finished:
                continue
            entry = spans.setdefault(
                f"{span.party}/{span.name}", {"count": 0, "total_ns": 0}
            )
            entry["count"] += 1
            entry["total_ns"] += span.duration_ns
        critical: dict[str, list[dict[str, Any]]] = {}
        try:
            from repro.telemetry.criticalpath import explain_migration

            explain = explain_migration(telemetry, tb.network)
            critical["total"] = [c.as_dict() for c in explain.total.contributions]
            critical["downtime"] = [
                c.as_dict() for c in explain.downtime.contributions
            ]
        except ValueError:
            pass  # no finished migration.run anchor (e.g. VM-only runs)
        return cls(
            label=label,
            meta=dict(meta or {}),
            figures={
                name: metrics.value(f"migration.{name}", default=0)
                for name in FIGURE_NAMES
            },
            metrics=metrics.snapshot(),
            spans=spans,
            critical=critical,
        )

    # ------------------------------------------------------------ round-trip
    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "meta": self.meta,
            "figures": self.figures,
            "metrics": self.metrics,
            "spans": self.spans,
            "critical": self.critical,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSnapshot":
        return cls(
            label=payload.get("label", "run"),
            meta=payload.get("meta", {}),
            figures=payload.get("figures", {}),
            metrics=payload.get("metrics", {}),
            spans=payload.get("spans", {}),
            critical=payload.get("critical", {}),
        )

    def save(self, path: str) -> None:
        from repro.telemetry.exporters import json_safe

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(json_safe(self.as_dict()), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunSnapshot":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class DeltaEntry:
    """One aligned key's movement between two runs."""

    key: str
    kind: str
    base: float
    fresh: float

    @property
    def delta(self) -> float:
        return self.fresh - self.base

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.kind,
            "base": self.base,
            "fresh": self.fresh,
            "delta": self.delta,
        }


@dataclass
class RunDiff:
    """The ranked comparison of two run snapshots."""

    base_label: str
    fresh_label: str
    figures: dict[str, DeltaEntry] = field(default_factory=dict)
    #: Critical-path contribution deltas, ranked by |delta|, per anchor.
    downtime_attribution: list[DeltaEntry] = field(default_factory=list)
    total_attribution: list[DeltaEntry] = field(default_factory=list)
    span_deltas: list[DeltaEntry] = field(default_factory=list)
    metric_deltas: list[DeltaEntry] = field(default_factory=list)

    # -------------------------------------------------------------- queries
    @property
    def downtime_delta_ns(self) -> float:
        entry = self.figures.get("downtime_ns")
        return entry.delta if entry else 0.0

    def share_of_downtime_delta(self, entry: DeltaEntry) -> float:
        """This contributor's signed share of the downtime delta, in %."""
        if not self.downtime_delta_ns:
            return 0.0
        return 100.0 * entry.delta / self.downtime_delta_ns

    def attributed_share(self, query: str) -> float:
        """Summed downtime-delta share of contributors matching ``query``.

        This is the acceptance-gate quantity: a +journal-cost
        perturbation must show ``attributed_share("journal.commit")``
        ≥ 80.
        """
        return sum(
            self.share_of_downtime_delta(e)
            for e in self.downtime_attribution
            if query in e.key
        )

    def headline(self) -> str:
        lines = []
        downtime = self.figures.get("downtime_ns")
        if downtime is None or downtime.delta == 0:
            return "downtime unchanged"
        sign = "+" if downtime.delta > 0 else ""
        head = f"downtime {sign}{downtime.delta / 1e6:.3f} ms"
        movers = [e for e in self.downtime_attribution if e.delta * downtime.delta > 0]
        if movers:
            top = movers[0]
            head += (
                f"; {self.share_of_downtime_delta(top):.1f}% of the delta "
                f"from {top.key}"
            )
        lines.append(head)
        return lines[0]

    # ------------------------------------------------------------ rendering
    def as_dict(self) -> dict[str, Any]:
        return {
            "base": self.base_label,
            "fresh": self.fresh_label,
            "headline": self.headline(),
            "figures": {k: e.as_dict() for k, e in self.figures.items()},
            "downtime_attribution": [
                {**e.as_dict(), "share_of_delta_pct": round(self.share_of_downtime_delta(e), 2)}
                for e in self.downtime_attribution
            ],
            "total_attribution": [e.as_dict() for e in self.total_attribution],
            "span_deltas": [e.as_dict() for e in self.span_deltas],
            "metric_deltas": [e.as_dict() for e in self.metric_deltas],
        }

    def render_text(self) -> str:
        lines = [f"=== repro diff: {self.base_label} -> {self.fresh_label} ==="]
        lines.append(self.headline())
        lines.append("")
        lines.append("-- figures")
        for name in FIGURE_NAMES:
            entry = self.figures.get(name)
            if entry is None:
                continue
            lines.append(
                f"  {name:20s} {entry.base:>14.0f} -> {entry.fresh:>14.0f} "
                f"({entry.delta:+.0f})"
            )
        lines.append("")
        lines.append("-- downtime delta, by critical-path contributor")
        for entry in self.downtime_attribution[:12]:
            lines.append(
                f"  {entry.key:45s} {entry.delta:>+12.0f} ns "
                f"{self.share_of_downtime_delta(entry):>7.1f}% of delta"
            )
        if not self.downtime_attribution:
            lines.append("  (no critical-path data in one of the snapshots)")
        lines.append("")
        lines.append("-- biggest span movers (total ns)")
        for entry in self.span_deltas[:10]:
            lines.append(f"  {entry.key:45s} {entry.delta:>+12.0f} ns")
        lines.append("")
        lines.append("-- biggest metric movers")
        for entry in self.metric_deltas[:10]:
            lines.append(f"  {entry.key:55s} {entry.delta:>+12.0f}")
        return "\n".join(lines) + "\n"

    def render_markdown(self) -> str:
        lines = [f"### repro diff: `{self.base_label}` → `{self.fresh_label}`", ""]
        lines.append(f"**{self.headline()}**")
        lines.append("")
        lines.append("| figure | base | fresh | delta |")
        lines.append("|---|---:|---:|---:|")
        for name in FIGURE_NAMES:
            entry = self.figures.get(name)
            if entry is None:
                continue
            lines.append(
                f"| {name} | {entry.base:.0f} | {entry.fresh:.0f} "
                f"| {entry.delta:+.0f} |"
            )
        lines.append("")
        lines.append("| downtime contributor | delta (ns) | share of delta |")
        lines.append("|---|---:|---:|")
        for entry in self.downtime_attribution[:12]:
            lines.append(
                f"| `{entry.key}` | {entry.delta:+.0f} "
                f"| {self.share_of_downtime_delta(entry):.1f}% |"
            )
        lines.append("")
        return "\n".join(lines) + "\n"


def _align(
    base: dict[str, float], fresh: dict[str, float], kind: str
) -> list[DeltaEntry]:
    entries = [
        DeltaEntry(key, kind, base.get(key, 0.0), fresh.get(key, 0.0))
        for key in sorted(set(base) | set(fresh))
    ]
    entries = [e for e in entries if e.delta]
    entries.sort(key=lambda e: (-abs(e.delta), e.key))
    return entries


def diff_runs(base: RunSnapshot, fresh: RunSnapshot) -> RunDiff:
    """Align two snapshots by stable keys and rank every movement."""
    diff = RunDiff(base_label=base.label, fresh_label=fresh.label)
    for name in FIGURE_NAMES:
        diff.figures[name] = DeltaEntry(
            name,
            "figure",
            float(base.figures.get(name, 0)),
            float(fresh.figures.get(name, 0)),
        )

    def contributions(snapshot: RunSnapshot, anchor: str) -> dict[str, float]:
        return {
            c["name"]: float(c["duration_ns"])
            for c in snapshot.critical.get(anchor, [])
        }

    diff.downtime_attribution = _align(
        contributions(base, "downtime"), contributions(fresh, "downtime"), "critical"
    )
    diff.total_attribution = _align(
        contributions(base, "total"), contributions(fresh, "total"), "critical"
    )
    diff.span_deltas = _align(
        {k: float(v["total_ns"]) for k, v in base.spans.items()},
        {k: float(v["total_ns"]) for k, v in fresh.spans.items()},
        "span",
    )
    diff.metric_deltas = _align(
        {k: float(v) for k, v in base.metrics.items() if not isinstance(v, dict)},
        {k: float(v) for k, v in fresh.metrics.items() if not isinstance(v, dict)},
        "metric",
    )
    return diff


# ---------------------------------------------------------------------------
# Run-spec resolution (CLI / ratchet entry point)
# ---------------------------------------------------------------------------

def resolve_run(spec: str) -> RunSnapshot:
    """A snapshot from a file path or a ``k=v,flag`` run spec.

    Grammar: comma-separated items among ``seed=N``, ``vm``,
    ``journal-cost-ns=N`` (perturbs the cost model), ``label=...``.  A path to an existing
    ``.json`` snapshot short-circuits the run.
    """
    if os.path.exists(spec):
        return RunSnapshot.load(spec)
    seed: int | str = 1
    vm = False
    journal_cost_ns: int | None = None
    label = spec
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if item == "vm":
            vm = True
        elif "=" in item:
            key, value = item.split("=", 1)
            if key == "seed":
                seed = int(value) if value.isdigit() else value
            elif key == "journal-cost-ns":
                journal_cost_ns = int(value)
            elif key == "label":
                label = value
            else:
                raise ValueError(f"unknown run-spec key {key!r} in {spec!r}")
        else:
            raise ValueError(
                f"bad run-spec item {item!r} in {spec!r} "
                "(expected k=v, 'vm', or a snapshot path)"
            )
    costs = None
    if journal_cost_ns is not None:
        from repro.sim.costs import DEFAULT_COSTS

        costs = dataclasses.replace(DEFAULT_COSTS, journal_commit_ns=journal_cost_ns)
    from repro.telemetry.runs import run_seeded_migration

    tb = run_seeded_migration(seed=seed, vm=vm, costs=costs)
    return RunSnapshot.capture(
        tb,
        label=label,
        meta={
            "spec": spec,
            "seed": seed,
            "vm": vm,
            "journal_cost_ns": journal_cost_ns,
        },
    )
