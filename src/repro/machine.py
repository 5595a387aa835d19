"""Physical machine composition.

A :class:`Machine` is one of the paper's two laptops: an SGX-capable CPU,
a hypervisor, and a QEMU monitor, all sharing the scenario's virtual
clock, cost model and trace.  Test scenarios build two of these plus the
attestation service and wire them over :mod:`repro.net`.
"""

from __future__ import annotations

from repro.durability.store import DurableStore
from repro.hypervisor.kvm import Hypervisor
from repro.hypervisor.qemu import QemuMonitor
from repro.sgx.attestation import AttestationService, QuotingEnclave, provision_platform
from repro.sgx.cpu import SgxCpu
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace


class Machine:
    """One SGX-capable host."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        trace: EventTrace,
        rng: DeterministicRng,
        costs: CostModel = DEFAULT_COSTS,
        epc_pages: int = 8192,
        durable: DurableStore | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.costs = costs
        self.trace = trace
        self.rng = rng.fork(name)
        self.cpu = SgxCpu(name, clock, costs, trace, self.rng.fork("cpu"), epc_pages=epc_pages)
        self.hypervisor = Hypervisor(clock, costs, trace, self.cpu)
        self.qemu = QemuMonitor(self.hypervisor)
        self.quoting_enclave: QuotingEnclave | None = None
        #: Stable storage: every enclave library on this machine keeps its
        #: write-ahead journal, sealed storage and one-use key tokens on
        #: it.  A testbed passes its shared store; a machine built on its
        #: own gets one of its own.
        if durable is None:
            durable = DurableStore(clock, trace, costs.journal_commit_ns)
        self.durable = durable
        #: The testbed's invariant monitor, if one is attached.
        self.monitor = None

    def provision(self, ias: AttestationService) -> None:
        """Manufacture-time step: install a QE and register with IAS."""
        self.quoting_enclave = provision_platform(self.cpu, ias)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.name}>"
