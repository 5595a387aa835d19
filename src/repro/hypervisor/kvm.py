"""The KVM-model hypervisor.

Owns the physical EPC on behalf of its VMs, implements the §VI-A pieces —
EPC discovery hypercalls, on-demand vEPC mapping, VMExit-inside-enclave
dispatch — and the migration plumbing of §VI-D: the upcall that tells the
guest OS to prepare its enclaves (step ②) and the hypercall with which
the guest reports that every enclave is ready (step ⑥).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HypervisorError
from repro.hypervisor.vepc import VirtualEpc
from repro.hypervisor.vm import GuestMemoryModel, Vm
from repro.hypervisor.vmcs import ExitReason
from repro.sgx.cpu import SgxCpu
from repro.sgx.structures import PAGE_SIZE
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import EventTrace

#: Where each VM sees its vEPC region in guest-physical space.
VEPC_BASE_GPA = 0x8000_0000


class Hypervisor:
    """One host's hypervisor instance."""

    def __init__(
        self,
        clock: VirtualClock,
        costs: CostModel,
        trace: EventTrace,
        cpu: SgxCpu,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.trace = trace
        self.cpu = cpu
        self.vms: dict[str, Vm] = {}
        self._migration_ready: dict[str, bool] = {}

    # ------------------------------------------------------------- lifecycle
    def create_vm(
        self,
        name: str,
        n_vcpus: int = 4,
        memory_mb: int = 2048,
        vepc_pages: int = 1024,
        working_set_pages: int | None = None,
        dirty_rate_pps: int = 2_000,
        premapped_fraction: float = 0.5,
    ) -> Vm:
        """Create a VM with a reserved (partially mapped) vEPC region."""
        if name in self.vms:
            raise HypervisorError(f"VM {name!r} already exists")
        total_pages = memory_mb * 1024 * 1024 // PAGE_SIZE
        memory = GuestMemoryModel(
            total_pages=total_pages,
            working_set_pages=working_set_pages if working_set_pages is not None else total_pages // 8,
            dirty_rate_pps=dirty_rate_pps,
        )
        vm = Vm(name=name, n_vcpus=n_vcpus, memory=memory)
        vm.vepc = VirtualEpc(
            base_gpa=VEPC_BASE_GPA,
            n_pages=vepc_pages,
            premapped_pages=int(vepc_pages * premapped_fraction),
            on_demand_map=lambda gpas, vm_name=name: self.handle_ept_violations(vm_name, gpas),
        )
        self.vms[name] = vm
        self._migration_ready[name] = False
        self.trace.emit("kvm", "create_vm", name=name, vcpus=n_vcpus, memory_mb=memory_mb)
        return vm

    # ------------------------------------------------------------- hypercalls
    def hc_get_epc_info(self, vm: Vm) -> tuple[int, int]:
        """Guest hypercall: learn the location and size of its vEPC."""
        self.clock.advance(self.costs.hypercall_ns)
        return vm.vepc.base_gpa, vm.vepc.n_pages

    def hc_migration_ready(self, vm: Vm) -> None:
        """Guest hypercall: every enclave has checkpointed (step ⑥)."""
        self.clock.advance(self.costs.hypercall_ns)
        self._migration_ready[vm.name] = True
        self.trace.emit("kvm", "migration_ready", vm=vm.name)

    def migration_ready(self, vm: Vm) -> bool:
        return self._migration_ready[vm.name]

    def reset_migration_state(self, vm: Vm) -> None:
        self._migration_ready[vm.name] = False

    # ------------------------------------------------------------- upcalls
    def upcall_migration_notify(self, vm: Vm) -> None:
        """Inject the special interrupt telling the guest to prepare (step ②)."""
        self.clock.advance(self.costs.upcall_ns)
        if vm.guest_os is None:
            raise HypervisorError(f"VM {vm.name!r} has no guest OS attached")
        self.trace.emit("kvm", "migration_notify", vm=vm.name)
        vm.guest_os.on_migration_notify()

    # ------------------------------------------------------------- exits
    def handle_ept_violations(self, vm_name: str, gpas: list[int]) -> None:
        """On-demand vEPC mapping of a run of pages: one EPT violation per
        page, each charged its exit round-trip, leaving the VMCS as the
        last one left it."""
        vm = self.vms[vm_name]
        vmcs = vm.vmcs[0]
        vmcs.record_exit(ExitReason.EPT_VIOLATION, in_enclave=True, gpa=gpas[-1])
        # Allocation from the physical EPC is modelled by the guest's own
        # SGX instructions; here we charge the exit round-trips and record
        # the mappings (we use the gpa page number as the physical handle).
        self.clock.advance(len(gpas) * self.costs.hypercall_ns)
        ept = vm.vepc.ept
        for gpa in gpas:
            ept.map(gpa, (gpa - vm.vepc.base_gpa) // PAGE_SIZE)
        vmcs.clear_enclave_interruption()

    def reclaim_physical(self, requester: str) -> None:
        """Overcommit path: revoke one physical EPC page from a victim VM.

        "If the hypervisor has already used up all the physical EPC and
        receives a new request for EPC allocation, it will revoke some
        EPC resource from a chosen VM by evicting EPC pages and clearing
        the mappings in EPT" (§VI-A).  The victim's own driver performs
        the EWB (in reality hardware EWB driven by the hypervisor); the
        result is one free physical page for the requester.
        """
        if getattr(self, "_reclaiming", False):
            # Re-entered while a reclaim is already evicting (the victim's
            # EWB needed EPC itself): break the cycle, let the caller
            # fall back to self-eviction.
            raise HypervisorError("reclaim already in progress")
        victims = [
            vm for name, vm in self.vms.items()
            if name != requester and vm.guest_os is not None
        ]
        victims.sort(key=lambda vm: vm.vepc.used_pages, reverse=True)
        self._reclaiming = True
        try:
            for victim in victims:
                driver = victim.guest_os.driver
                try:
                    driver._evict_one()
                except Exception:
                    continue
                self.clock.advance(self.costs.hypercall_ns)
                self.trace.emit(
                    "kvm", "epc_reclaim", victim=victim.name, requester=requester
                )
                return
        finally:
            self._reclaiming = False
        raise HypervisorError("physical EPC exhausted and no victim VM can yield a page")

    def handle_vmexit(
        self,
        vm: Vm,
        reason: ExitReason,
        in_enclave: bool,
        handler: Callable[[], None] | None = None,
        **qualification,
    ) -> None:
        """Generic VMExit path with Enclave Interruption bookkeeping.

        "For other events such as illegal instruction and timer interrupt,
        currently we clear the bit in EXIT_REASON field and then reuse the
        original handlers" (§VI-A).
        """
        vmcs = vm.vmcs[0]
        vmcs.record_exit(reason, in_enclave, **qualification)
        self.clock.advance(self.costs.hypercall_ns)
        if vmcs.enclave_interruption and reason is not ExitReason.EPT_VIOLATION:
            vmcs.clear_enclave_interruption()
        if handler is not None:
            handler()
