"""Deterministic concurrent multi-migration runner with a downtime budget.

:class:`FleetRunner` drives N seeded migrations through the full §IV/§V
protocol — each on its own testbed (own virtual clock, own telemetry,
own flight recorder namespaced by migration id) — and composes them
into one *fleet timeline* with a deterministic admission model:

* the fleet has ``max_inflight`` slots; migration *i* is admitted at
  the earliest time a slot frees up and occupies its slot for exactly
  the virtual duration its own testbed clock measured;
* each migration's downtime and total time are its own testbed's
  ``migration.downtime_ns`` / ``migration.total_ns``; a completed
  migration whose downtime exceeds :data:`DOWNTIME_BUDGET_NS` is a
  budget violation, emitted as an ``("slo", "violation")`` event into
  its own telemetry (a flight-recorder dump trigger) and listed in the
  report;
* per-migration downtime feeds one
  :class:`~repro.telemetry.sketch.QuantileSketch` — the fleet p50/p99
  the console and ``BENCH_fleet.json`` report.

Because execution is serial Python over virtual clocks, the whole run
is a pure function of its configuration: same seeds → byte-identical
``BENCH_fleet.json``, console snapshot, and OTLP artifacts.  Faults are
injected on a deterministic cadence (``fault_every``) so CI can assert
the budget catches them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fleet.hosts import (
    DEFAULT_BW_BYTES_PER_SEC,
    DEFAULT_EPC_PAGES,
    HostModel,
    HostSpec,
    HostUtilization,
)
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.waitstate import (
    WAIT_KINDS,
    WaitProfile,
    verify_conservation,
    wait_blame_name,
)

__all__ = [
    "DOWNTIME_BUDGET_NS",
    "FleetConfig",
    "FleetReport",
    "FleetRunner",
    "MigrationRecord",
    "write_contention_bench",
    "write_fleet_bench",
]

#: Per-migration stop-and-copy downtime budget.  It brackets the
#: calibrated clean downtime (~28.8 ms at seed 1): a clean fleet stays
#: within it, a fleet with injected faults exceeds it.
DOWNTIME_BUDGET_NS = 30_000_000

#: Default fault spec for the injected-fault cadence: a 5 ms delay on
#: the checkpoint message lands inside stop-and-copy, pushing downtime
#: from ~28.8 ms to ~33.8 ms — past :data:`DOWNTIME_BUDGET_NS`.
DEFAULT_FAULT_SPEC = "delay:checkpoint:1"


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run, fully determined by this value."""

    n: int = 16
    #: Base seeds, cycled across migrations; each migration derives
    #: ``"<seed>/mig<i>"`` so same-seed migrations still jitter apart.
    seeds: tuple[int | str, ...] = (1,)
    max_inflight: int = 8
    #: Inject ``fault_spec`` into every k-th migration (0 = never).
    fault_every: int = 0
    fault_spec: str = DEFAULT_FAULT_SPEC
    #: Per-host contention model (0 = off: the plain slot timeline).
    #: With ``hosts > 0`` every migration is placed source→target and
    #: must acquire EPC pages and a bandwidth grant before starting.
    hosts: int = 0
    epc_per_host: int = DEFAULT_EPC_PAGES
    bw_per_host: int = DEFAULT_BW_BYTES_PER_SEC

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("fleet needs at least one migration")
        if not self.seeds:
            raise ValueError("fleet needs at least one seed")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.fault_every < 0:
            raise ValueError("fault_every cannot be negative")
        if self.hosts < 0:
            raise ValueError("hosts cannot be negative")
        if self.hosts:
            # HostSpec validates capacities; fail at config time.
            HostSpec(self.hosts, self.epc_per_host, self.bw_per_host)

    def seed_for(self, index: int) -> str:
        base = self.seeds[index % len(self.seeds)]
        return f"{base}/mig{index:04d}"

    def mig_id(self, index: int) -> str:
        base = self.seeds[index % len(self.seeds)]
        return f"mig{index:04d}-s{base}"

    def faulted(self, index: int) -> bool:
        return self.fault_every > 0 and index % self.fault_every == 0

    def series_key(self) -> str:
        """The BENCH_fleet.json series this configuration writes."""
        seeds = "-".join(str(s) for s in self.seeds)
        key = f"n{self.n}_seeds{seeds}_inflight{self.max_inflight}"
        if self.fault_every:
            key += f"_fault{self.fault_every}"
        if self.hosts:
            key += f"_hosts{self.hosts}_epc{self.epc_per_host}_bw{self.bw_per_host}"
        return key

    def host_spec(self) -> HostSpec | None:
        if not self.hosts:
            return None
        return HostSpec(self.hosts, self.epc_per_host, self.bw_per_host)


@dataclass
class MigrationRecord:
    """One migration's place on the fleet timeline."""

    index: int
    mig_id: str
    seed: str
    status: str                  # "ok" | "failed"
    faulted: bool
    start_ns: int                # fleet admission time
    end_ns: int                  # fleet completion time
    duration_ns: int             # the migration's own virtual duration
    downtime_ns: int | None
    total_ns: int | None
    outcome: str = "migrated"
    error: str | None = None
    #: Contention-model fields (hosts > 0): when the migration was
    #: submitted, where it was placed, and every typed wait it served.
    arrival_ns: int = 0
    source_host: int | None = None
    target_host: int | None = None
    #: Ordered ``(kind, duration_ns, host)`` waits (see waitstate).
    waits: list[tuple[str, int, int | None]] = field(default_factory=list)
    #: Top critical-path contributions of the migration's own run —
    #: the blame targets for self-slowdown in the straggler report.
    top_spans: list[dict[str, Any]] = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.arrival_ns

    @property
    def queued_ns(self) -> int:
        return sum(ns for _, ns, _ in self.waits)

    @property
    def over_budget(self) -> bool:
        return self.downtime_ns is not None and self.downtime_ns > DOWNTIME_BUDGET_NS

    def budget_violation(self) -> dict[str, Any] | None:
        """The downtime-budget violation this migration fired, if any."""
        if not self.over_budget:
            return None
        return {
            "kind": "fired",
            "objective": "downtime-budget",
            "mig_id": self.mig_id,
            "t_ns": self.end_ns,
            "downtime_ns": self.downtime_ns,
            "budget_ns": DOWNTIME_BUDGET_NS,
        }

    def wait_profile(self) -> WaitProfile:
        return WaitProfile(
            mig_id=self.mig_id,
            arrival_ns=self.arrival_ns,
            start_ns=self.start_ns,
            end_ns=self.end_ns,
            waits=tuple(self.waits),
            source_host=self.source_host,
            target_host=self.target_host,
        )

    def as_dict(self) -> dict[str, Any]:
        out = {
            "index": self.index,
            "mig_id": self.mig_id,
            "seed": self.seed,
            "status": self.status,
            "faulted": self.faulted,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "downtime_ns": self.downtime_ns,
            "total_ns": self.total_ns,
            "outcome": self.outcome,
            "error": self.error,
        }
        if self.waits or self.source_host is not None:
            out.update(
                {
                    "arrival_ns": self.arrival_ns,
                    "wall_ns": self.wall_ns,
                    "queued_ns": self.queued_ns,
                    "source_host": self.source_host,
                    "target_host": self.target_host,
                    "waits": {
                        wait_blame_name(kind, host): ns
                        for kind, ns, host in self.waits
                        if ns > 0
                    },
                    "top_spans": list(self.top_spans),
                }
            )
        return out


@dataclass
class FleetReport:
    """Outcome of one fleet run."""

    config: FleetConfig
    records: list[MigrationRecord]
    downtime_sketch: QuantileSketch
    #: OTLP sample artifacts: the first migration's traces document and
    #: a fleet-level metrics document carrying the downtime sketch.
    otlp_traces_sample: dict[str, Any] | None = None
    #: Contention plane (hosts > 0): the host model with its
    #: reservations, per-wait-kind queueing sketches, the total-queued
    #: sketch, and each migration's own critical-path report keyed by
    #: mig_id (what the straggler report folds waits into).
    host_model: HostModel | None = None
    wait_sketches: dict[str, QuantileSketch] = field(default_factory=dict)
    queue_sketch: QuantileSketch | None = None
    inner_paths: dict[str, Any] = field(default_factory=dict)

    @property
    def makespan_ns(self) -> int:
        return max((r.end_ns for r in self.records), default=0)

    @property
    def host_utilization(self) -> list[HostUtilization]:
        if self.host_model is None:
            return []
        return self.host_model.utilization(max(self.makespan_ns, 1))

    @property
    def total_queued_ns(self) -> int:
        return sum(r.queued_ns for r in self.records)

    @property
    def budget_violations(self) -> list[dict[str, Any]]:
        return [v for r in self.records if (v := r.budget_violation()) is not None]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status != "ok")

    @property
    def migrations_per_sec(self) -> float:
        makespan = self.makespan_ns
        if makespan <= 0:
            return 0.0
        return len(self.records) / (makespan / 1e9)

    def bench_payload(self) -> dict[str, float]:
        """Lower-is-better leaves for the bench ratchet."""
        sketch = self.downtime_sketch
        return {
            "makespan_ns": float(self.makespan_ns),
            "ns_per_migration": (
                self.makespan_ns / len(self.records) if self.records else 0.0
            ),
            "downtime_p50_ns": sketch.p50,
            "downtime_p99_ns": sketch.p99,
        }

    def contention_payload(self) -> dict[str, float]:
        """The ``BENCH_fleet_contention.json`` leaves for this run.

        Queueing delays are lower-is-better; the utilization leaves are
        change-detectors — deterministic runs reproduce them exactly,
        so any drift means the scheduler's behavior changed.
        """
        if self.host_model is None or self.queue_sketch is None:
            return {}
        utils = self.host_utilization
        epc = [u.mean_pct for u in utils if u.resource == "epc"]
        bw = [u.mean_pct for u in utils if u.resource == "bandwidth"]
        payload = {
            "makespan_ns": float(self.makespan_ns),
            "queueing_p50_ns": self.queue_sketch.p50,
            "queueing_p99_ns": self.queue_sketch.p99,
            "epc_util_pct": round(sum(epc) / len(epc), 4) if epc else 0.0,
            "bw_util_pct": round(sum(bw) / len(bw), 4) if bw else 0.0,
        }
        for kind in WAIT_KINDS:
            sketch = self.wait_sketches.get(kind)
            if sketch is not None:
                payload[f"queued_{kind}_p99_ns"] = sketch.p99
        return payload

    def otlp_metrics(self) -> dict[str, Any]:
        """Fleet-level OTLP metrics: the downtime sketch as a histogram."""
        from repro.telemetry.otlp import (
            SCOPE,
            _attributes,
            default_resource,
            sketch_to_otlp_histogram,
        )

        resource = default_resource(
            **{
                "service.name": "repro-fleet",
                "fleet.n": self.config.n,
                "fleet.seeds": ",".join(str(s) for s in self.config.seeds),
            }
        )
        metrics = [
            sketch_to_otlp_histogram(
                "fleet.downtime_ns", self.downtime_sketch, t_ns=self.makespan_ns
            )
        ]
        if self.host_model is not None:
            if self.queue_sketch is not None and self.queue_sketch.count:
                metrics.append(
                    sketch_to_otlp_histogram(
                        "fleet.queued_ns", self.queue_sketch, t_ns=self.makespan_ns
                    )
                )
            for kind in WAIT_KINDS:
                sketch = self.wait_sketches.get(kind)
                if sketch is not None and sketch.count:
                    metrics.append(
                        sketch_to_otlp_histogram(
                            f"fleet.queued.{kind}_ns",
                            sketch,
                            t_ns=self.makespan_ns,
                        )
                    )
            for util in self.host_utilization:
                # The utilization timeline as a gauge series: one data
                # point per step change, on the fleet's virtual clock.
                metrics.append(
                    {
                        "name": f"fleet.host.{util.resource}_used",
                        "gauge": {
                            "dataPoints": [
                                {
                                    "timeUnixNano": str(t),
                                    "asDouble": float(u),
                                    "attributes": _attributes(
                                        {
                                            "host": util.host,
                                            "capacity": util.capacity,
                                        }
                                    ),
                                }
                                for t, u in util.timeline
                            ]
                        },
                    }
                )
        return {
            "resourceMetrics": [
                {
                    "resource": {"attributes": _attributes(resource)},
                    "scopeMetrics": [{"scope": dict(SCOPE), "metrics": metrics}],
                }
            ]
        }

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n": self.config.n,
            "seeds": [str(s) for s in self.config.seeds],
            "max_inflight": self.config.max_inflight,
            "fault_every": self.config.fault_every,
            "makespan_ns": self.makespan_ns,
            "migrations_per_sec": self.migrations_per_sec,
            "completed": self.completed,
            "failed": self.failed,
            "downtime": {
                "p50_ns": self.downtime_sketch.p50,
                "p95_ns": self.downtime_sketch.p95,
                "p99_ns": self.downtime_sketch.p99,
                "count": self.downtime_sketch.count,
            },
            "slo": {"violations": self.budget_violations},
            "records": [r.as_dict() for r in self.records],
        }
        if self.host_model is not None:
            spec = self.host_model.spec
            out["hosts"] = {
                "count": spec.hosts,
                "epc_pages": spec.epc_pages,
                "bw_bytes_per_sec": spec.bw_bytes_per_sec,
                "total_queued_ns": self.total_queued_ns,
                "queueing": {
                    "p50_ns": self.queue_sketch.p50 if self.queue_sketch else 0.0,
                    "p99_ns": self.queue_sketch.p99 if self.queue_sketch else 0.0,
                },
                "utilization": [u.as_dict() for u in self.host_utilization],
            }
        return out


class FleetRunner:
    """Runs a :class:`FleetConfig` to a :class:`FleetReport`.

    ``on_record`` (if given) is called after every migration completes,
    with the fresh :class:`MigrationRecord` and the runner itself — the
    live console hook.
    """

    def __init__(
        self,
        config: FleetConfig,
        on_record: Callable[[MigrationRecord, "FleetRunner"], None] | None = None,
    ) -> None:
        self.config = config
        self.on_record = on_record
        self.records: list[MigrationRecord] = []
        self.downtime_sketch = QuantileSketch()
        self._slots = [0] * config.max_inflight
        spec = config.host_spec()
        self.hosts: HostModel | None = HostModel(spec) if spec else None
        self.wait_sketches: dict[str, QuantileSketch] = {
            kind: QuantileSketch() for kind in WAIT_KINDS
        }
        self.queue_sketch = QuantileSketch()
        self._inner_paths: dict[str, Any] = {}

    # ------------------------------------------------------------------- run
    def run(self) -> FleetReport:
        otlp_sample = None
        for index in range(self.config.n):
            record, traces_doc = self._run_one(index)
            if index == 0:
                otlp_sample = traces_doc
            self.records.append(record)
            if self.on_record is not None:
                self.on_record(record, self)
        if self.hosts is not None:
            # Hard invariants of the contention plane: no host may ever
            # exceed a capacity, and every record's wall time must be
            # fully covered by running + typed waits (checked per-record
            # at admission too; re-checked here over the final state).
            makespan = max((r.end_ns for r in self.records), default=0)
            self.hosts.check_capacity(max(makespan, 1))
            for record in self.records:
                verify_conservation(record.wait_profile())
        return FleetReport(
            config=self.config,
            records=self.records,
            downtime_sketch=self.downtime_sketch,
            otlp_traces_sample=otlp_sample,
            host_model=self.hosts,
            wait_sketches=self.wait_sketches,
            queue_sketch=self.queue_sketch,
            inner_paths=self._inner_paths,
        )

    @property
    def fleet_now_ns(self) -> int:
        """Latest completion time on the fleet timeline so far."""
        return max((r.end_ns for r in self.records), default=0)

    @property
    def inflight_at_now(self) -> int:
        now = self.fleet_now_ns
        return sum(1 for t in self._slots if t > now)

    # ------------------------------------------------------------ one flight
    def _run_one(self, index: int) -> tuple[MigrationRecord, dict[str, Any] | None]:
        from repro.errors import MigrationAborted, ReproError
        from repro.faults import FaultInjector, parse_fault_spec
        from repro.migration.orchestrator import MigrationOrchestrator
        from repro.migration.testbed import build_testbed
        from repro.sdk import HostApplication, counter_program
        from repro.telemetry.otlp import default_resource, to_otlp_traces

        config = self.config
        mig_id = config.mig_id(index)
        seed = config.seed_for(index)
        faulted = config.faulted(index)

        tb = build_testbed(seed=seed)
        telemetry = tb.telemetry
        telemetry.flightrecorder.namespace = mig_id

        built = tb.builder.build(
            "fleet-enclave",
            counter_program("fleet/counter-v1"),
            n_workers=1,
            global_names=("n",),
        )
        tb.owner.register_image(built)
        app = HostApplication(
            tb.source, tb.source_os, built.image, [], owner=tb.owner
        ).launch()
        for _ in range(3):
            app.ecall_once(0, "incr")

        plan = None
        if faulted:
            plan = parse_fault_spec(config.fault_spec)
            plan.seed = seed

        status, outcome, error = "ok", "migrated", None
        try:
            MigrationOrchestrator(
                tb, faults=FaultInjector(plan) if plan else None
            ).migrate_enclave(app)
        except (MigrationAborted, ReproError) as exc:
            status, outcome, error = "failed", "aborted", str(exc)

        # ---------------------------------------------------- fleet timeline
        duration = tb.clock.now_ns
        slot = min(range(len(self._slots)), key=lambda i: self._slots[i])
        slot_free = self._slots[slot]
        arrival = 0
        waits: list[tuple[str, int, int | None]] = []
        source_host = target_host = None
        if self.hosts is not None:
            bytes_moved = int(
                telemetry.metrics.value("migration.transferred_bytes", default=0)
            ) or int(telemetry.metrics.value("checkpoint.bytes", default=0))
            admission = self.hosts.admit(
                index,
                arrival_ns=arrival,
                slot_free_ns=slot_free,
                duration_ns=duration,
                bytes_moved=bytes_moved,
            )
            start, end = admission.start_ns, admission.end_ns
            waits = list(admission.waits)
            source_host = admission.source_host
            target_host = admission.target_host
            queued = admission.queued_ns
            self.queue_sketch.observe(queued)
            for kind, wait_ns, host in waits:
                self.wait_sketches[kind].observe(wait_ns)
                telemetry.metrics.gauge(
                    "fleet.queued_ns", kind=kind, host=-1 if host is None else host
                ).set(wait_ns)
        else:
            start = slot_free
            end = start + duration
        self._slots[slot] = end

        # ---------------------------------------------- wait-state telemetry
        top_spans: list[dict[str, Any]] = []
        if self.hosts is not None and status == "ok":
            from repro.telemetry.criticalpath import ANCHOR_TOTAL, critical_path

            try:
                inner = critical_path(telemetry, tb.network, ANCHOR_TOTAL)
            except ValueError:
                inner = None
            if inner is not None:
                self._inner_paths[mig_id] = inner
                top_spans = [
                    {
                        "name": c.name,
                        "duration_ns": c.duration_ns,
                        "share_pct": round(c.share_pct, 4),
                    }
                    for c in inner.contributions[:5]
                ]

        # --------------------------------------------------- figures + sketch
        # A completed migration's figures are its own testbed's gauges;
        # a failed one has none.
        downtime = total = None
        if status == "ok":
            downtime = int(telemetry.metrics.value("migration.downtime_ns"))
            total = int(telemetry.metrics.value("migration.total_ns"))
            self.downtime_sketch.observe(downtime)

        record = MigrationRecord(
            index=index,
            mig_id=mig_id,
            seed=seed,
            status=status,
            faulted=faulted,
            start_ns=start,
            end_ns=end,
            duration_ns=duration,
            downtime_ns=downtime,
            total_ns=total,
            outcome=outcome,
            error=error,
            arrival_ns=arrival,
            source_host=source_host,
            target_host=target_host,
            waits=waits,
            top_spans=top_spans,
        )
        if self.hosts is not None:
            # Conservation is a hard invariant: every nanosecond of this
            # migration's wall time is running or a typed wait.
            verify_conservation(record.wait_profile())
        violation = record.budget_violation()
        if violation is not None:
            # Into *this* migration's telemetry, so its flight recorder
            # dumps the violation under the mig-id namespace.
            telemetry.trace.emit("slo", "violation", **violation)

        traces_doc = None
        if index == 0:
            traces_doc = to_otlp_traces(
                telemetry, resource=default_resource(telemetry, **{"fleet.mig": mig_id})
            )
        return record, traces_doc


# ------------------------------------------------------------------- ratchet

def write_fleet_bench(
    report: FleetReport, bench_dir: str | None = None
) -> str | None:
    """Merge this run's series into ``BENCH_fleet.json``.

    Same read-modify-write shape as the benchmark harness (sorted keys,
    two-space indent, trailing newline), so the ratchet and CI diff the
    file byte-wise.  ``bench_dir`` defaults to ``$REPRO_BENCH_DIR``;
    returns ``None`` (writing nothing) when neither is set.
    """
    return _merge_bench(
        "BENCH_fleet.json", report.config.series_key(), report.bench_payload(), bench_dir
    )


def write_contention_bench(
    report: FleetReport, bench_dir: str | None = None
) -> str | None:
    """Merge this run's contention series into ``BENCH_fleet_contention.json``.

    Only fleet runs with the host model enabled produce a contention
    series; returns ``None`` otherwise (and when no bench dir is set).
    """
    payload = report.contention_payload()
    if not payload:
        return None
    return _merge_bench(
        "BENCH_fleet_contention.json", report.config.series_key(), payload, bench_dir
    )


def _merge_bench(
    filename: str, series_key: str, payload: dict[str, float], bench_dir: str | None
) -> str | None:
    directory = bench_dir or os.environ.get("REPRO_BENCH_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    existing: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
    existing[series_key] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(existing, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
