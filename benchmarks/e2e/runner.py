"""One benchmark run of one workload, in the current (fresh) process.

A run repeats units of its workload until ``seconds`` of wall time have
passed (always at least one unit).  Unit 0 is the reference unit: its
virtual figures are checked exactly against ``reference.json`` where a
reference for the seed exists.  With ``trace`` set, unit 0 runs under the
:class:`~benchmarks.e2e.tracer.LayerTracer` and the later, untraced units
give the base for the tracing overhead.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

from repro.crypto.backend import get_backend

from benchmarks.e2e import tracer as tracing
from benchmarks.e2e.workloads import (
    BENCH_SCALE,
    TINY_SCALE,
    WORKLOADS,
    Observer,
    Scale,
    release_testbeds,
)

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"
SCALES = {"bench": BENCH_SCALE, "tiny": TINY_SCALE}

#: Paper values (EXPERIMENTS.md) printed next to the reproduced figure.
PAPER = {
    ("vm-enclaves", "downtime_p50_ms"): 11.0,
    ("bulk-state", "checkpoint_p50_ms"): 95.0,
}

_ns = time.perf_counter_ns


def header(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    return {
        "python": platform.python_version(),
        "crypto_backend": get_backend().name,
        "cryptography": importlib.util.find_spec("cryptography") is not None,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
    }


def virtual_figures(obs: Observer) -> dict[str, int]:
    """The reference unit's virtual figures (medians are lower medians)."""
    return {
        "migrations": len(obs.downtime_ns),
        "downtime_p50_ns": statistics.median_low(obs.downtime_ns),
        "downtime_max_ns": max(obs.downtime_ns),
        "total_p50_ns": statistics.median_low(obs.total_ns),
        "transferred_bytes": sum(obs.transferred_bytes),
        "checkpoint_p50_ns": statistics.median_low(obs.checkpoint_ns),
    }


def virtual_metrics(fig: dict[str, int]) -> dict[str, dict]:
    """Virtual figures in the units the paper reports (simulated time)."""
    return {
        "downtime_p50_ms": {"value": fig["downtime_p50_ns"] / 1e6, "unit": "sim_ms"},
        "downtime_max_ms": {"value": fig["downtime_max_ns"] / 1e6, "unit": "sim_ms"},
        "total_p50_ms": {"value": fig["total_p50_ns"] / 1e6, "unit": "sim_ms"},
        "transferred_mb": {
            "value": fig["transferred_bytes"] / fig["migrations"] / 2**20,
            "unit": "MB/mig",
        },
        "checkpoint_p50_ms": {"value": fig["checkpoint_p50_ns"] / 1e6, "unit": "sim_ms"},
    }


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _unit(workload, unit_seed: str, scale: Scale, tracer=None) -> tuple[int, Observer]:
    setup_start = _ns()
    ctx = workload.setup(unit_seed, scale)
    setup_ns = _ns() - setup_start
    obs = Observer(tracer)
    with obs.measuring():
        workload.run(ctx, obs)
    del ctx
    release_testbeds()
    gc.collect()
    return setup_ns, obs


def _growth(walls_ns: list[int]) -> float:
    """Median wall of the last tenth of migrations over the second tenth.

    The first tenth is skipped: it pays one-time warm-up (lazy imports,
    first-use caches) that would hide growth with history.
    """
    k = max(1, len(walls_ns) // 10)
    base = walls_ns[k : 2 * k] or walls_ns[:k]
    return statistics.median(walls_ns[-k:]) / statistics.median(base)


def _per_layer(tracer: tracing.LayerTracer, traced: Observer, untraced: list[Observer]) -> dict:
    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    self_ns = tracer.layer_self_ns()
    calls = tracer.layer_calls()
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", self_ns[layer] / 1e9, "s")
        put(f"{layer}.calls", calls[layer], "count")
    put("bench.self_s", self_ns[tracing.BENCH] / 1e9, "s")
    put("trace.wall_s", tracer.wall_ns / 1e9, "s")
    base = sum(o.measured_ns for o in untraced) / sum(len(o.walls_ns) for o in untraced)
    traced_per = traced.measured_ns / max(1, len(traced.walls_ns))
    put("trace.overhead_pct", 100.0 * (traced_per / base - 1.0), "%")
    put("bench.migrations", len(traced.walls_ns), "count")
    put("bench.wall_growth", _growth(untraced[0].walls_ns), "ratio")
    put("crypto.modpow.calls", tracer.calls_of("builtins.pow"), "count")
    put("crypto.modpow.self_s", tracer.bucket_ns("crypto.modpow") / 1e9, "s")
    put("crypto.rsa_keygen.calls", tracer.calls_of("repro.crypto.rsa.generate_rsa_keypair"), "count")
    put("crypto.rsa_keygen.self_s", tracer.bucket_ns("crypto.rsa_keygen") / 1e9, "s")
    put("crypto.rsa_sign.calls", tracer.calls_of("repro.crypto.rsa.RsaPrivateKey.sign"), "count")
    put("crypto.cipher.bytes", tracer.cipher_bytes, "bytes")
    put("crypto.cipher.self_s", tracer.bucket_ns("crypto.cipher") / 1e9, "s")
    put(
        "sgx.epc_page_objects",
        tracer.calls_of("repro.sgx.epc.EpcPage.__init__")
        + tracer.calls_of("repro.sgx.epc.EpcmEntry.__init__"),
        "count",
    )
    harvest = traced.harvest
    for name in ("sgx.instructions", "net.messages", "net.chunk_retransmits",
                 "durability.journal_appends", "hypervisor.precopy_rounds",
                 "migration.retries", "telemetry.spans", "invariants.checks"):
        put(name, harvest.counters[name], "count")
    put("net.wire_bytes", harvest.counters["net.wire_bytes"], "bytes")
    put("migration.checkpoint_bytes", harvest.counters["migration.checkpoint_bytes"], "bytes")
    put("sim.engine_rounds", tracer.calls_of("repro.sim.engine.Engine.step_round"), "count")
    put("sim.engine_threads_end", harvest.threads_end, "count")
    for part in tracing.DOWNTIME_PARTS:
        put(f"vt.downtime.{part}_ms", harvest.downtime_parts[part] / 1e6, "sim_ms")
    put("vt.downtime.total_ms", harvest.downtime_ns / 1e6, "sim_ms")
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "bench",
    import_s: float = 0.0,
) -> dict:
    """Run one workload; returns the full result (see :func:`emit`)."""
    workload = WORKLOADS[name]
    sizes = SCALES[scale]
    start = _ns()
    deadline = start + int(seconds * 1e9)
    setups: list[int] = []
    units: list[Observer] = []
    tracer = traced = None
    if trace:
        tracer = tracing.LayerTracer()
        tracer.install()
        try:
            _, traced = _unit(workload, f"{seed}/u0", sizes, tracer)
        finally:
            tracer.uninstall()
    while not units or _ns() < deadline:
        setup_ns, obs = _unit(workload, f"{seed}/u{len(units) + bool(trace)}", sizes)
        setups.append(setup_ns)
        units.append(obs)
        if len(units) == 1:
            # Later units only add allocator fragmentation, so the peak is
            # taken once the first has finished: a property of the work,
            # not of how many units fit in the time budget.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reference_unit = traced or units[0]
    everything = ([traced] if traced else []) + units
    failures = [f for obs in everything for f in obs.failures]
    attempted = sum(obs.attempted for obs in everything)
    result = {
        "header": header(name, seed, seconds, trace, scale),
        "units": len(everything),
    }
    if reference_unit.downtime_ns:
        figures = virtual_figures(reference_unit)
        result["virtual"] = figures
        result["virtual_metrics"] = virtual_metrics(figures)
        reference = load_reference(name, seed) if scale == "bench" else None
        result["reference"] = reference is not None
        for key, expected in (reference or {}).items():
            if figures.get(key) != expected:
                failures.append(f"reference: {key} = {figures.get(key)}, expected {expected}")
    else:
        failures.append("the reference unit completed no migration")

    if trace:
        metrics = _per_layer(tracer, traced, units)
        failures.extend(traced.harvest.mismatches)
        total = sum(tracer.layer_self_ns().values())
        if total != tracer.wall_ns:
            failures.append(f"layer self-times sum to {total} ns, traced wall {tracer.wall_ns} ns")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT_DIR / f"trace-{name}.json"))
        result["hottest"] = tracer.hottest()
    else:
        walls = [w for obs in units for w in obs.walls_ns]
        measured = sum(obs.measured_ns for obs in units)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups) / 1e9, "unit": "s"},
            "migrations_per_s": {"value": len(walls) / (measured / 1e9), "unit": "1/s"},
            "migration_wall_p50_ms": {"value": statistics.median(walls) / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }
    result.update(
        correct=not failures,
        attempted=attempted,
        # A failed check counts as a failed migration (at most all of them).
        failed=min(len(failures), attempted),
        failures=failures,
        metrics=metrics,
    )
    return result


def emit(result: dict) -> None:
    """Human-readable report, then the one-line JSON summary last."""
    head = result["header"]
    print(
        f"# {head['workload']} seed={head['seed']} seconds={head['seconds']} "
        f"trace={int(head['trace'])} scale={head['scale']} | python {head['python']} "
        f"crypto={head['crypto_backend']} cryptography={head['cryptography']} "
        f"nproc={head['nproc']}"
    )
    print(f"  units={result['units']} attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in result.get("virtual_metrics", {}).items():
        paper = PAPER.get((head["workload"], name)) if head["scale"] == "bench" else None
        note = f"   (paper: ~{paper:g} ms)" if paper is not None else ""
        print(f"  virtual {name:24s} {metric['value']:>16.6f} {metric['unit']}{note}")
    if "reference" in result:
        print(f"  virtual figures checked against reference: {result['reference']}")
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=True))
