"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure from the paper's §VIII.
pytest-benchmark measures the *wall-clock* cost of running the simulation;
the *results* the paper plots are virtual-time metrics, printed as a small
table per figure and summarized in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os

from repro.migration.testbed import Testbed, build_testbed
from repro.sdk.host import HostApplication, WorkerSpec

#: Where the machine-readable figure series land; the repo root keeps
#: them next to EXPERIMENTS.md so CI can diff them across runs.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_json_path(figure: str) -> str:
    """Path of the machine-readable series for ``figure`` (e.g. "fig10")."""
    return os.path.join(
        os.environ.get("REPRO_BENCH_DIR", _REPO_ROOT), f"BENCH_{figure}.json"
    )


def write_bench_json(figure: str, series: dict) -> str:
    """Merge one figure's series into ``BENCH_<figure>.json``.

    Read-modify-write under sorted keys: a sweep that only regenerates
    one series (or runs the benches in a different order) never clobbers
    the others, and the file diffs cleanly across runs.
    """
    path = bench_json_path(figure)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload: dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
    payload.update(series)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def print_figure(title: str, header: list[str], rows: list[list]) -> None:
    """Print one figure's series the way the paper reports it."""
    print()
    print(f"=== {title} ===")
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows]) for i, h in enumerate(header)]
    print("  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + " | ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def launch_shared_image_apps(
    tb: Testbed,
    built,
    n: int,
    workers: list[WorkerSpec] | None = None,
    provision: bool = True,
) -> list[HostApplication]:
    """Launch ``n`` enclave apps from one image on the source machine."""
    tb.owner.register_image(built)
    apps = []
    for i in range(n):
        app = HostApplication(
            tb.source,
            tb.source_os,
            built.image,
            workers=list(workers or []),
            owner=tb.owner if provision else None,
            name=f"{built.image.name}-{i}",
        )
        app.launch()
        apps.append(app)
    return apps


def checkpoint_durations_us(tb: Testbed) -> list[float]:
    """Per-enclave two-phase checkpointing times, from the span layer."""
    return [s.duration_ns / 1_000 for s in tb.trace.tracer.find("checkpoint.two_phase")]


def metrics_snapshot(tb: Testbed) -> dict:
    """The testbed's full metrics snapshot (series key -> value)."""
    return tb.trace.metrics.snapshot()


def report_from_metrics(tb: Testbed, live_report) -> "MigrationReport":
    """Rebuild a :class:`MigrationReport` from the metrics registry.

    The figure benchmarks read this instead of the hypervisor's live
    report object: it proves the registry carries the same numbers the
    monitor computed (prep/restore windows are not registry gauges and
    come from the live report).
    """
    from repro.hypervisor.qemu import MigrationReport

    figures = migration_figures(tb)
    return MigrationReport(
        total_ns=int(figures["total_ns"]),
        downtime_ns=int(figures["downtime_ns"]),
        transferred_bytes=int(figures["transferred_bytes"]),
        precopy_rounds=int(tb.trace.metrics.value("migration.precopy_rounds")),
        prep_ns=live_report.prep_ns,
        restore_ns=live_report.restore_ns,
    )


def migration_figures(tb: Testbed) -> dict[str, float]:
    """The Figure-10 quantities, sourced from the metrics registry.

    Benchmarks read these instead of grepping the event stream: the
    registry's gauges are written by the orchestrator / QEMU monitor at
    the moment the migration completes, from the same spans the trace
    exporters render.
    """
    metrics = tb.trace.metrics
    return {
        "downtime_ns": metrics.value("migration.downtime_ns"),
        "total_ns": metrics.value("migration.total_ns"),
        "transferred_bytes": metrics.value("migration.transferred_bytes"),
        "wire_bytes": metrics.sum_across_labels("wire.bytes"),
        "completed": metrics.value("migration.completed_total"),
    }
