"""Resident memory of a bulk enclave migration, step by step, with a gate.

Sets up one ``bulk-state`` benchmark unit (``BulkState.setup`` at
``BENCH_SCALE``: a 16 MB memcached enclave, unit seed ``1/u0``) and
hops it as the workload does, through ``repro``'s public API.  Around
each protocol step the orchestrator runs, it reads the process's
resident set (``/proc/self/statm``) and prints one row per step: RSS
before, after, and the process's peak so far.  It ends with the peak
above the resident set measured right after import, as a multiple of
the sealed checkpoint's size.

Exits 1 when that multiple exceeds 5.5: a bulk hop should hold its two
enclaves, the durable store's sealed blobs and at most one more
checkpoint-sized buffer per stage.  Exits 0 without measuring where
there is no ``/proc`` to read.

    PYTHONPATH=src:. python scripts/bulk_memory.py
"""

from __future__ import annotations

import os
import resource
import sys

STATM = "/proc/self/statm"
MB = 1 << 20
#: The most the peak may rise above the post-import RSS, in sealed
#: checkpoints.
MAX_RATIO = 5.5
UNIT_SEED = "1/u0"
STEPS = (
    "checkpoint_enclave",
    "build_virgin_target",
    "establish_channel",
    "transfer_checkpoint",
    "handoff_storage",
    "restore",
)


def rss_mb() -> float:
    with open(STATM) as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    if not os.path.exists(STATM):
        print(f"bulk_memory: no {STATM} here; nothing measured")
        return 0

    from benchmarks.e2e.workloads import BENCH_SCALE, BulkState
    from repro.migration.chain import hop_view
    from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator

    base = rss_mb()
    rows: list[tuple[str, float, float, float]] = []

    class ProbedOrchestrator(MigrationOrchestrator):
        """Reads the resident set around each protocol step it runs."""

        hop = 0

    def probed(name: str):
        step = getattr(MigrationOrchestrator, name)

        def wrapper(self, *args, **kwargs):
            before = rss_mb()
            try:
                return step(self, *args, **kwargs)
            finally:
                rows.append((f"hop {self.hop} {name}", before, rss_mb(), peak_mb()))

        return wrapper

    for name in STEPS:
        setattr(ProbedOrchestrator, name, probed(name))

    ctx = BulkState().setup(UNIT_SEED, BENCH_SCALE)
    tb, app = ctx["tb"], ctx["app"]
    rows.append(("testbed and filled enclave", base, rss_mb(), peak_mb()))
    sealed = 0
    for hop in range(1, ctx["hops"] + 1):
        app.ecall_once(0, "set", {"key": f"hop{hop}", "value": b"x"})
        orch = ProbedOrchestrator(hop_view(tb, hop), retry=FAULT_TOLERANT_RETRY)
        orch.hop = hop
        result = orch.migrate_enclave(app)
        sealed = result.checkpoint_bytes
        before = rss_mb()
        app.destroy()  # the migrated-away copy
        app = result.target_app
        rows.append((f"hop {hop} destroy source", before, rss_mb(), peak_mb()))

    print(f"{'step':<38} {'before MB':>10} {'after MB':>10} {'peak MB':>10}")
    for name, before, after, peak in rows:
        print(f"{name:<38} {before:>10.1f} {after:>10.1f} {peak:>10.1f}")
    above = peak_mb() - base
    ratio = above / (sealed / MB)
    print(
        f"post-import RSS {base:.1f} MB, peak {peak_mb():.1f} MB: {above:.1f} MB above "
        f"import for a {sealed / MB:.1f} MB sealed checkpoint = {ratio:.2f}x "
        f"(gate {MAX_RATIO}x)"
    )
    if ratio > MAX_RATIO:
        print("bulk_memory: peak over the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
