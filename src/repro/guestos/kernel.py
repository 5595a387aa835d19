"""The guest kernel: processes, signals, and migration preparation.

§VI-D steps ②-⑥ live here: the kernel receives the hypervisor's migration
upcall, refuses new enclaves, sends SIGUSR1 to every enclave process,
waits (running the guest scheduler) until every SGX library has reported
its enclave ready, and finally issues the migration-ready hypercall.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.errors import GuestOsError
from repro.guestos.process import SIGUSR1, GuestProcess, GuestThread
from repro.guestos.scheduler import MaliciousScheduler, Scheduler
from repro.guestos.sgx_driver import SgxDriver
from repro.sim.engine import Engine, ThreadBody

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.hypervisor.vm import Vm


class GuestOs:
    """One VM's operating system."""

    def __init__(self, machine: "Machine", vm: "Vm", malicious_scheduler: bool = False) -> None:
        self.machine = machine
        self.vm = vm
        self.trace = machine.trace
        self.costs = machine.costs
        self.engine = Engine(
            machine.clock,
            n_vcpus=vm.n_vcpus,
            context_switch_ns=machine.costs.context_switch_ns,
        )
        scheduler_cls = MaliciousScheduler if malicious_scheduler else Scheduler
        self.scheduler = scheduler_cls(self.engine, self.trace)
        self.driver = SgxDriver(machine, vm)
        self.processes: dict[int, GuestProcess] = {}
        self.migrating = False
        self._ready_enclaves: set[int] = set()
        #: Per-kernel PID allocator.  A process-global one would hand a
        #: second testbed in the same interpreter different pids, and
        #: the per-process RDRAND stream (forked by pid) would diverge
        #: between two same-seed runs.
        self._next_pid = itertools.count(100)
        vm.guest_os = self

    # ------------------------------------------------------------- processes
    def spawn_process(self, name: str) -> GuestProcess:
        process = GuestProcess(name, pid=next(self._next_pid))
        self.processes[process.pid] = process
        return process

    def spawn_thread(self, process: GuestProcess, name: str, body: ThreadBody) -> GuestThread:
        return self.scheduler.spawn(process, name, body)

    def deliver_signal(self, process: GuestProcess, signal: int) -> None:
        """Deliver a signal; the registered handler runs in-process."""
        self.machine.clock.advance(self.costs.signal_delivery_ns)
        handler = process.signal_handlers.get(signal)
        if handler is None:
            raise GuestOsError(f"{process.name} has no handler for signal {signal}")
        handler()

    # ------------------------------------------------------------- execution
    def run_until(self, predicate: Callable[[], bool], max_rounds: int = 2_000_000) -> int:
        return self.engine.run(until=predicate, max_rounds=max_rounds)

    def run_all(self, max_rounds: int = 2_000_000) -> int:
        return self.engine.run_all(max_rounds=max_rounds)

    # ------------------------------------------------------------- migration
    def mark_enclave_ready(self, enclave_id: int) -> None:
        """Syscall the SGX library uses after its control thread returns."""
        self._ready_enclaves.add(enclave_id)
        self.trace.emit("guestos", "enclave_ready", id=enclave_id)

    def enclaves_ready(self) -> bool:
        return self._ready_enclaves >= set(self.driver.live_enclave_ids())

    def on_migration_notify(self) -> None:
        """Hypervisor upcall (step ②): prepare every enclave, then ack.

        "After the guest OS receives the migration notification, it will
        refuse to create any new enclaves till the end of migration and
        ask applications to make enclaves prepared for migration" (§VI-D).
        """
        self.migrating = True
        self.driver.refuse_new_enclaves = True
        self._ready_enclaves.clear()
        enclave_processes = [
            p for p in self.processes.values() if SIGUSR1 in p.signal_handlers
        ]
        for process in enclave_processes:
            self.deliver_signal(process, SIGUSR1)  # step ③
        if self.driver.live_enclave_ids():
            self.run_until(self.enclaves_ready)  # steps ④-⑤ under the scheduler
        self.machine.hypervisor.hc_migration_ready(self.vm)  # step ⑥

    def end_migration(self) -> None:
        """Clear migration mode (used on the target after restore)."""
        self.migrating = False
        self.driver.refuse_new_enclaves = False
