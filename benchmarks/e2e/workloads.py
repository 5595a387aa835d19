"""The four benchmark workloads, driven only through public ``repro`` APIs.

Each workload is a *unit* that is set up (timed as set-up) and then run
(timed as the measured phase); a run repeats units until its time budget
is spent.  Every unit derives all of its inputs from its unit seed.  A
unit records, through the :class:`Observer` it is handed:

* the wall time of every migration (closed loop: one migration at a time);
* the virtual figures of every migration (downtime, total time,
  transferred bytes, two-phase checkpoint spans);
* every failed migration and failed correctness check.

Checks and trace bookkeeping run inside :meth:`Observer.observing`, which
is excluded from the measured wall and from the trace.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import InvariantViolation, ReproError
from repro.faults import FaultInjector, parse_fault_spec
from repro.fleet import FleetConfig, FleetRunner
from repro.invariants import reset_active as reset_monitors
from repro.migration import testbed as testbed_module
from repro.migration.chain import hop_view
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.migration.vm import VmMigrationManager
from repro.sdk import AtomicEntry, EnclaveProgram, HostApplication, WorkerSpec, control
from repro.sgx.structures import PAGE_SIZE
from repro.telemetry.flightrecorder import reset_active as reset_recorders
from repro.workloads.apps import build_app_image
from repro.workloads.memcached import build_memcached_image

from benchmarks.e2e import tracer as tracing

_ns = time.perf_counter_ns

#: Every 10th chain hop loses one checkpoint chunk and must retransmit it.
CHAIN_FAULT_EVERY = 10
CHAIN_FAULT_SPEC = "drop:checkpoint-chunk:2"


@dataclass(frozen=True)
class Scale:
    """Sizes of one unit of each workload."""

    fleet_n: int
    chain_hops: int
    vm_enclaves: int
    bulk_mb: int
    bulk_hops: int


#: Sizes the benchmark runs at.
BENCH_SCALE = Scale(fleet_n=8, chain_hops=100, vm_enclaves=64, bulk_mb=16, bulk_hops=2)
#: Sizes the self-test runs at.
TINY_SCALE = Scale(fleet_n=2, chain_hops=4, vm_enclaves=4, bulk_mb=1, bulk_hops=2)


def seed_int(unit_seed: str, modulus: int) -> int:
    """A stable small integer derived from a unit seed."""
    digest = hashlib.sha256(unit_seed.encode()).digest()
    return int.from_bytes(digest[:8], "big") % modulus


class Observer:
    """Measurements of one unit: walls, virtual figures, failures, trace."""

    def __init__(self, tracer: tracing.LayerTracer | None = None) -> None:
        self.tracer = tracer
        self.walls_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.downtime_ns: list[int] = []
        self.total_ns: list[int] = []
        self.transferred_bytes: list[int] = []
        self.checkpoint_ns: list[int] = []
        self.measured_ns = 0
        self.harvest = tracing.Harvest()
        self._paused_ns = 0
        self._marked = (None, 0)  # (testbed, its spans already recorded)

    def now(self) -> int:
        """Wall clock with every observing interval cut out."""
        return _ns() - self._paused_ns

    @contextmanager
    def measuring(self):
        start = self.now()
        if self.tracer is not None:
            self.tracer.resume()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.pause()
            self.measured_ns += self.now() - start

    @contextmanager
    def migration(self):
        self.attempted += 1
        start = self.now()
        try:
            yield
        finally:
            self.walls_ns.append(self.now() - start)

    @contextmanager
    def observing(self):
        start = _ns()
        traced = self.tracer is not None and self.tracer.on
        if traced:
            self.tracer.pause()
        try:
            yield
        finally:
            if traced:
                self.tracer.resume()
            self._paused_ns += _ns() - start

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def assert_clean(self, tb) -> None:
        try:
            tb.monitor.assert_clean()
        except InvariantViolation as exc:
            self.failures.append(f"invariant violation: {exc}")

    def _figures(self, tb, downtime: int, total: int, transferred: int) -> None:
        self.downtime_ns.append(int(downtime))
        self.total_ns.append(int(total))
        self.transferred_bytes.append(int(transferred))
        # Two-phase checkpoint spans finished since the last migration.
        spans = tb.telemetry.tracer.spans
        seen = self._marked[1] if self._marked[0] is tb else 0
        self.checkpoint_ns.extend(
            s.duration_ns
            for s in spans[seen:]
            if s.name == "checkpoint.two_phase" and s.finished
        )
        self._marked = (tb, len(spans))

    def enclave_migrated(self, tb) -> None:
        """Figures of the enclave migration that just finished on ``tb``."""
        metrics = tb.telemetry.metrics
        self._figures(
            tb,
            metrics.value("migration.downtime_ns"),
            metrics.value("migration.total_ns"),
            metrics.value("migration.transferred_bytes"),
        )
        if self.tracer is not None:
            self.harvest.enclave_downtime(tb)

    def vm_migrated(self, tb, report) -> None:
        """Figures of the VM migration ``report`` just finished on ``tb``."""
        self._figures(tb, report.downtime_ns, report.total_ns, report.transferred_bytes)
        if self.tracer is not None:
            self.harvest.vm_downtime(tb, report)

    def testbed_start(self, tb) -> None:
        if self.tracer is not None:
            with self.observing():
                self.harvest.start(tb)

    def testbed_done(self, tb) -> None:
        if self.tracer is not None:
            self.harvest.testbed(tb)


def release_testbeds() -> None:
    """Drop the process-wide monitor/recorder registries between units.

    Both registries hold every testbed ever built; clearing them between
    units keeps peak memory a property of one unit, not of run length.
    """
    reset_monitors()
    reset_recorders()


# ------------------------------------------------------------------ fleet-cold
class FleetCold:
    """A cold ``FleetRunner`` fleet: every migration builds its own testbed."""

    name = "fleet-cold"

    def setup(self, unit_seed: str, scale: Scale):
        config = FleetConfig(n=scale.fleet_n, seeds=(unit_seed,), max_inflight=8, hosts=0)
        return {"config": config}

    def run(self, ctx, obs: Observer) -> None:
        built: list = []
        factory = testbed_module.build_testbed

        def capturing(*args, **kwargs):
            tb = factory(*args, **kwargs)
            built.append(tb)
            return tb

        mark = [obs.now()]

        def on_record(record, runner) -> None:
            obs.attempted += 1
            obs.walls_ns.append(obs.now() - mark[0])
            with obs.observing():
                tb = built.pop()
                obs.check(
                    record.status == "ok" and record.outcome == "migrated",
                    f"{record.mig_id}: {record.status}/{record.outcome} {record.error}",
                )
                if record.status == "ok":
                    obs.enclave_migrated(tb)
                obs.assert_clean(tb)
                obs.testbed_done(tb)
            mark[0] = obs.now()

        # The runner imports the testbed factory at call time; observing it
        # there is the only way to reach each migration's own testbed.
        testbed_module.build_testbed = capturing
        try:
            report = FleetRunner(ctx["config"], on_record=on_record).run()
        finally:
            testbed_module.build_testbed = factory
        with obs.observing():
            obs.check(report.failed == 0, f"{report.failed} fleet migrations failed")
            obs.check(
                len(report.records) == ctx["config"].n,
                f"fleet ran {len(report.records)} of {ctx['config'].n} migrations",
            )


# ------------------------------------------------------------------ chain-hops
def _counter_program() -> EnclaveProgram:
    program = EnclaveProgram("e2e/counter-v1")

    def incr(rt, args):
        value = rt.load_global("n") + 1
        rt.store_global("n", value)
        return value

    program.add_entry("incr", AtomicEntry(incr))
    program.add_entry("read", AtomicEntry(lambda rt, args: rt.load_global("n"), cost_ns=1_000))
    return program


class ChainHops:
    """One counter enclave with sealed storage, migrated back and forth."""

    name = "chain-hops"
    ecalls_per_hop = 4
    puts_per_hop = 4

    def setup(self, unit_seed: str, scale: Scale):
        tb = build_testbed(seed=f"e2e/chain/{unit_seed}")
        built = tb.builder.build("e2e-counter", _counter_program(), n_workers=1, global_names=("n",))
        tb.owner.register_image(built)
        app = HostApplication(tb.source, tb.source_os, built.image, [], owner=tb.owner).launch()
        return {"tb": tb, "app": app, "hops": scale.chain_hops, "tag": seed_int(unit_seed, 10**6)}

    def run(self, ctx, obs: Observer) -> None:
        tb, app, tag = ctx["tb"], ctx["app"], ctx["tag"]
        obs.testbed_start(tb)
        count = 0
        stored: dict[str, str] = {}
        retransmits = faulted = 0
        try:
            for hop in range(1, ctx["hops"] + 1):
                for _ in range(self.ecalls_per_hop):
                    count += 1
                    got = app.ecall_once(0, "incr")
                    obs.check(got == count, f"hop {hop}: counter {got} != {count}")
                for k in range(self.puts_per_hop):
                    stored[f"k{k}"] = f"{tag}:{hop}:{k}"
                    app.library.control_call(control.storage_put, f"k{k}", stored[f"k{k}"])
                key = f"k{hop % self.puts_per_hop}"
                got = app.library.control_call(control.storage_get, key)
                obs.check(got == stored[key], f"hop {hop}: storage {key} = {got!r}")

                faults = None
                if hop % CHAIN_FAULT_EVERY == 0:
                    faults = FaultInjector(parse_fault_spec(CHAIN_FAULT_SPEC))
                    faulted += 1
                orch = MigrationOrchestrator(
                    hop_view(tb, hop), retry=FAULT_TOLERANT_RETRY, faults=faults
                )
                with obs.migration():
                    result = orch.migrate_enclave(app)
                if faults is not None:
                    faults.detach()
                retransmits += orch.stats.chunk_retransmits
                app.destroy()  # the migrated-away copy
                app = result.target_app
                with obs.observing():
                    obs.enclave_migrated(tb)
        except ReproError as exc:
            obs.failures.append(f"chain hop failed: {type(exc).__name__}: {exc}")
            return
        with obs.observing():
            obs.check(app.ecall_once(0, "read") == count, "final counter mismatch")
            for key, value in stored.items():
                got = app.library.control_call(control.storage_get, key)
                obs.check(got == value, f"final storage {key} = {got!r}, wanted {value!r}")
            obs.check(
                retransmits == faulted,
                f"{retransmits} chunk retransmits for {faulted} dropped chunks",
            )
            obs.assert_clean(tb)
            obs.testbed_done(tb)


# ----------------------------------------------------------------- vm-enclaves
#: What the ``cr4`` entry returns: the length of its ciphertext buffer.
_CR4_RESULT = 2 * PAGE_SIZE


class VmEnclaves:
    """Figure 10 at its 64-enclave point: a whole-VM live migration."""

    name = "vm-enclaves"
    warm_rounds = 30

    def setup(self, unit_seed: str, scale: Scale):
        tb = build_testbed(seed=f"e2e/vm/{unit_seed}", vepc_pages=16384, epc_pages=32768)
        built = build_app_image(tb.builder, "cr4", flavor="e2e")
        tb.owner.register_image(built)
        worker = WorkerSpec(
            "process", args=1 + seed_int(unit_seed, 1000), repeat=None, think_time_ns=400_000
        )
        apps = [
            HostApplication(
                tb.source, tb.source_os, built.image, workers=[worker],
                owner=tb.owner, name=f"{built.image.name}-{i}",
            ).launch()
            for i in range(scale.vm_enclaves)
        ]
        for _ in range(self.warm_rounds):
            tb.source_os.engine.step_round()
        return {"tb": tb, "apps": apps}

    def run(self, ctx, obs: Observer) -> None:
        tb, apps = ctx["tb"], ctx["apps"]
        obs.testbed_start(tb)
        try:
            with obs.migration():
                result = VmMigrationManager(tb, apps).migrate()
        except ReproError as exc:
            obs.failures.append(f"VM migration failed: {type(exc).__name__}: {exc}")
            return
        with obs.observing():
            obs.vm_migrated(tb, result.report)
            targets = [r.target_app for r in result.enclave_results]
            obs.check(len(targets) == len(apps), f"{len(targets)} of {len(apps)} enclaves restored")
            # Every restored enclave must keep serving correct results.
            before = [len(t.results.get("process", [])) for t in targets]
            try:
                tb.target_os.run_until(
                    lambda: all(
                        len(t.results.get("process", [])) > n for t, n in zip(targets, before)
                    ),
                    max_rounds=200_000,
                )
            except ReproError as exc:
                obs.failures.append(f"restored enclaves stalled: {exc}")
            for t in targets:
                results = t.results.get("process", [])
                obs.check(
                    bool(results) and all(r == _CR4_RESULT for r in results),
                    f"{t.library.image.name}: bad results after restore",
                )
            obs.assert_clean(tb)
            obs.testbed_done(tb)


# ------------------------------------------------------------------ bulk-state
class BulkState:
    """A large memcached enclave: the per-byte path, hop after hop."""

    name = "bulk-state"

    def setup(self, unit_seed: str, scale: Scale):
        pages = scale.bulk_mb * 256 + 64
        # Room for one copy only: each hop must destroy the migrated-away copy.
        tb = build_testbed(
            seed=f"e2e/bulk/{unit_seed}", vepc_pages=pages + 128, epc_pages=pages + 512
        )
        built = build_memcached_image(tb.builder, state_mb=scale.bulk_mb, n_workers=4)
        tb.owner.register_image(built)
        app = HostApplication(tb.source, tb.source_os, built.image, [], owner=tb.owner).launch()
        app.ecall_once(0, "fill", seed_int(unit_seed, 2**31))
        return {"tb": tb, "app": app, "hops": scale.bulk_hops, "tag": seed_int(unit_seed, 10**6)}

    def run(self, ctx, obs: Observer) -> None:
        tb, app, tag = ctx["tb"], ctx["app"], ctx["tag"]
        obs.testbed_start(tb)
        stored: dict[str, bytes] = {}
        try:
            for hop in range(1, ctx["hops"] + 1):
                key, value = f"hop{hop}", f"{tag}-{hop}".encode()
                reply = app.ecall_once(0, "set", {"key": key, "value": value})
                obs.check(reply == {"ok": True}, f"set {key}: {reply}")
                stored[key] = value
                orch = MigrationOrchestrator(hop_view(tb, hop), retry=FAULT_TOLERANT_RETRY)
                with obs.migration():
                    result = orch.migrate_enclave(app)
                app.destroy()  # the migrated-away copy
                app = result.target_app
                with obs.observing():
                    obs.enclave_migrated(tb)
        except ReproError as exc:
            obs.failures.append(f"bulk hop failed: {type(exc).__name__}: {exc}")
            return
        with obs.observing():
            for key, value in stored.items():
                reply = app.ecall_once(0, "get", {"key": key})
                obs.check(reply.get("value") == value, f"get {key}: {reply}")
            obs.assert_clean(tb)
            obs.testbed_done(tb)


WORKLOADS = {w.name: w for w in (FleetCold(), ChainHops(), VmEnclaves(), BulkState())}
