"""QEMU-model monitor: pre-copy live migration.

Implements the classic iterative pre-copy loop (Clark et al., NSDI'05 —
the paper's baseline mechanism) over the statistical RAM model, with the
enclave hooks of §VI-D spliced in where the paper puts them:

* ``prepare_hook`` runs first (steps ①-⑥: notify guest, control threads
  generate checkpoints into normal RAM, guest hypercalls ready);
* pre-copy rounds then transfer RAM (including parked checkpoints);
* stop-and-copy pauses the VM and sends the residual dirty set;
* ``restore_hook`` rebuilds and restores enclaves on the target.

The report's total time / downtime / transferred bytes are exactly the
quantities of Figures 10(b)-(d); per the paper, two-phase checkpointing
time is *counted into the downtime* even though non-enclave applications
keep running while checkpoints are generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import HypervisorError
from repro.hypervisor.kvm import Hypervisor
from repro.hypervisor.vm import Vm
from repro.sgx.structures import PAGE_SIZE
from repro.sim.clock import NS_PER_MS

#: CPU/device state shipped during stop-and-copy.
_VCPU_STATE_BYTES = 64 * 1024
#: Pre-copy stops once the pending delta wire bytes fit this budget...
DOWNTIME_TARGET_BYTES = 256 * 1024
#: ...or after this many rounds.
MAX_PRECOPY_ROUNDS = 16


@dataclass(frozen=True)
class MigrationReport:
    """What one live migration cost."""

    total_ns: int
    downtime_ns: int
    transferred_bytes: int
    precopy_rounds: int
    prep_ns: int
    restore_ns: int

    @property
    def total_ms(self) -> float:
        return self.total_ns / NS_PER_MS

    @property
    def downtime_ms(self) -> float:
        return self.downtime_ns / NS_PER_MS

    @property
    def transferred_mb(self) -> float:
        return self.transferred_bytes / (1024 * 1024)


class QemuMonitor:
    """The per-host QEMU process pair's monitor interface."""

    def __init__(self, hypervisor: Hypervisor) -> None:
        self.hypervisor = hypervisor
        self.clock = hypervisor.clock
        self.costs = hypervisor.costs
        self.trace = hypervisor.trace

    def _transfer(self, n_bytes: int) -> int:
        """Ship bytes to the target host; returns the elapsed ns."""
        dt = self.costs.net_transfer_ns(n_bytes)
        self.clock.advance(dt)
        return dt

    def _delta_wire_bytes(self, n_pages: int) -> int:
        """Wire cost of ``n_pages`` re-dirtied pages sent as deltas.

        Every page reaching rounds >= 2 (and the stop-and-copy residual)
        was already shipped in full during round 1, so the target holds a
        base copy to patch: the sender transmits an XOR+RLE delta plus a
        small per-page header instead of the whole 4 KB.
        """
        per_page = int(PAGE_SIZE * self.costs.precopy_delta_ratio)
        return n_pages * (per_page + self.costs.delta_page_header_bytes)

    def migrate(
        self,
        vm: Vm,
        prepare_hook: Callable[[], int | None] | None = None,
        restore_hook: Callable[[], None] | None = None,
    ) -> MigrationReport:
        """Live-migrate ``vm`` to the target host (shared storage model).

        Re-dirtied pages (rounds >= 2 and the stop-and-copy residual)
        ship as deltas against the target's base copy, not full pages.
        """
        if vm.paused:
            raise HypervisorError("cannot migrate a paused VM")
        start_ns = self.clock.now_ns
        transferred = 0

        # Steps ①-⑥: guest prepares enclaves; checkpoints land in RAM.
        # A hook may return the number of ns that should count toward the
        # downtime (e.g. only the checkpointing window, not background
        # work like agent escrow which §VI-D allows "even before a
        # migration"); by default the whole preparation counts.
        prep_start = self.clock.now_ns
        downtime_prep_ns: int | None = None
        with self.trace.tracer.span("vm.prepare", party="source", vm=vm.name):
            if prepare_hook is not None:
                self.hypervisor.reset_migration_state(vm)
                downtime_prep_ns = prepare_hook()
        prep_ns = self.clock.now_ns - prep_start
        if downtime_prep_ns is None:
            downtime_prep_ns = prep_ns

        # Iterative pre-copy.  The first pass sends all RAM plus whatever
        # the preparation parked there (enclave checkpoints, records).
        rounds = 0
        to_send_bytes = vm.memory.take_dirty() * PAGE_SIZE + vm.memory.extra_bytes
        while True:
            rounds += 1
            with self.trace.tracer.span(
                "vm.precopy.round",
                party="source",
                round=rounds,
                bytes=to_send_bytes,
            ):
                dt = self._transfer(to_send_bytes)
            transferred += to_send_bytes
            vm.memory.advance(dt)  # guest keeps dirtying during the copy
            # Re-dirtied pages ship as deltas, so the stop criterion
            # compares their *wire* cost to the target.
            pending = self._delta_wire_bytes(vm.memory.dirty_pages)
            if pending <= DOWNTIME_TARGET_BYTES or rounds >= MAX_PRECOPY_ROUNDS:
                break
            to_send_bytes = self._delta_wire_bytes(vm.memory.take_dirty())

        # Stop-and-copy: pause, ship the residual dirty set + CPU state.
        vm.pause()
        stop_start = self.clock.now_ns
        with self.trace.tracer.span("vm.stop_and_copy", party="source", vm=vm.name):
            residual = self._delta_wire_bytes(vm.memory.take_dirty()) + _VCPU_STATE_BYTES
            self._transfer(residual)
            transferred += residual
        stop_ns = self.clock.now_ns - stop_start
        vm.resume()  # resumes on the target host

        # Enclave rebuild/restore on the target (outside the VM's downtime
        # for non-enclave applications, reported separately by Fig 10(a),
        # but still part of this migration's total time).
        restore_start = self.clock.now_ns
        with self.trace.tracer.span("vm.restore", party="target", vm=vm.name):
            if restore_hook is not None:
                restore_hook()
        restore_ns = self.clock.now_ns - restore_start

        total_ns = self.clock.now_ns - start_ns
        # The paper counts two-phase checkpointing into the downtime.
        report = MigrationReport(
            total_ns=total_ns,
            downtime_ns=stop_ns + downtime_prep_ns,
            transferred_bytes=transferred,
            precopy_rounds=rounds,
            prep_ns=prep_ns,
            restore_ns=restore_ns,
        )
        metrics = self.trace.metrics
        metrics.gauge("migration.downtime_ns").set(report.downtime_ns)
        metrics.gauge("migration.total_ns").set(report.total_ns)
        metrics.gauge("migration.transferred_bytes").set(report.transferred_bytes)
        metrics.gauge("migration.precopy_rounds").set(rounds)
        metrics.counter("migration.completed_total").inc()
        self.trace.emit(
            "qemu",
            "migrated",
            vm=vm.name,
            total_ms=round(report.total_ms, 3),
            downtime_ms=round(report.downtime_ms, 3),
            transferred_mb=round(report.transferred_mb, 1),
            rounds=rounds,
        )
        return report
