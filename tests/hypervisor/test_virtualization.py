"""EPT, VMCS, virtual EPC, hypervisor hypercalls, and pre-copy."""

import pytest

from repro.errors import EptViolation, HypervisorError, SgxEpcExhausted, SgxInstructionFault
from repro.hypervisor.ept import Ept
from repro.hypervisor.vepc import VirtualEpc
from repro.hypervisor.vm import GuestMemoryModel
from repro.hypervisor.vmcs import ENCLAVE_INTERRUPTION_BIT, ExitReason, Vmcs
from repro.machine import Machine
from repro.sgx.structures import PAGE_SIZE
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

GPA = 0x8000_0000


@pytest.fixture
def machine(clock, trace):
    return Machine("host", clock, trace, DeterministicRng("m"), epc_pages=512)


class TestEpt:
    def test_translate_unmapped_faults(self):
        ept = Ept(GPA, 16)
        with pytest.raises(EptViolation):
            ept.translate(GPA)
        assert ept.violations == 1

    def test_map_then_translate(self):
        ept = Ept(GPA, 16)
        ept.map(GPA + PAGE_SIZE, 7)
        assert ept.translate(GPA + PAGE_SIZE) == 7

    def test_outside_region_rejected(self):
        ept = Ept(GPA, 16)
        with pytest.raises(EptViolation):
            ept.map(GPA + 17 * PAGE_SIZE, 0)
        assert not ept.in_vepc(GPA - PAGE_SIZE)
        assert ept.in_vepc(GPA)

    def test_unaligned_rejected(self):
        ept = Ept(GPA, 16)
        with pytest.raises(EptViolation):
            ept.translate(GPA + 1)

    def test_unmap(self):
        ept = Ept(GPA, 16)
        ept.map(GPA, 3)
        assert ept.unmap(GPA) == 3
        with pytest.raises(EptViolation):
            ept.unmap(GPA)


class TestVmcs:
    def test_enclave_interruption_bit_set(self):
        vmcs = Vmcs(0)
        vmcs.record_exit(ExitReason.EXTERNAL_INTERRUPT, in_enclave=True)
        assert vmcs.enclave_interruption
        assert vmcs.exit_reason_bits & ENCLAVE_INTERRUPTION_BIT

    def test_bit_clear_when_outside_enclave(self):
        vmcs = Vmcs(0)
        vmcs.record_exit(ExitReason.EXTERNAL_INTERRUPT, in_enclave=False)
        assert not vmcs.enclave_interruption

    def test_clear_enclave_interruption(self):
        vmcs = Vmcs(0)
        vmcs.record_exit(ExitReason.ILLEGAL_INSTRUCTION, in_enclave=True)
        vmcs.clear_enclave_interruption()
        assert not vmcs.enclave_interruption

    def test_qualification_recorded(self):
        vmcs = Vmcs(0)
        vmcs.record_exit(ExitReason.EPT_VIOLATION, in_enclave=True, gpa=0x1234000)
        assert vmcs.exit_qualification == {"gpa": 0x1234000}


class TestVirtualEpc:
    def make(self, n_pages=8, premapped=4):
        mapped = []
        vepc = VirtualEpc(GPA, n_pages, premapped, on_demand_map=mapped.append)
        return vepc, mapped

    def test_alloc_within_quota(self):
        vepc, _ = self.make()
        gpas = {vepc.alloc_page() for _ in range(8)}
        assert len(gpas) == 8

    def test_quota_exhaustion(self):
        vepc, _ = self.make(n_pages=4, premapped=4)
        for _ in range(4):
            vepc.alloc_page()
        with pytest.raises(SgxEpcExhausted):
            vepc.alloc_page()

    def test_on_demand_mapping_only_beyond_premap(self):
        vepc, mapped = self.make(n_pages=8, premapped=4)
        for _ in range(4):
            vepc.alloc_page()
        assert mapped == []  # premapped region: no EPT violations
        vepc.alloc_page()
        assert len(mapped) == 1  # first touch beyond the premapped part

    def test_free_allows_realloc(self):
        vepc, _ = self.make(n_pages=2, premapped=2)
        gpa = vepc.alloc_page()
        vepc.alloc_page()
        vepc.free_page(gpa)
        vepc.alloc_page()  # no exhaustion

    def test_used_pages_counter(self):
        vepc, _ = self.make()
        assert vepc.used_pages == 0
        vepc.alloc_page()
        assert vepc.used_pages == 1

    def test_guest_cannot_free_a_page_it_does_not_hold(self):
        # The guest OS is untrusted: a double free, or a free of a gpa never
        # handed out, must not put a page on the free list twice.
        vepc, _ = self.make(n_pages=4, premapped=4)
        gpa = vepc.alloc_page()
        vepc.free_page(gpa)
        for bad in (gpa, vepc.gpa_of(3)):
            with pytest.raises(SgxInstructionFault):
                vepc.free_page(bad)
        assert vepc.used_pages == 0
        assert [vepc.alloc_page(), vepc.alloc_page()] == [vepc.gpa_of(0), vepc.gpa_of(1)]


class TestHypervisor:
    def test_create_vm_reserves_vepc(self, machine):
        vm = machine.hypervisor.create_vm("vm", memory_mb=64, vepc_pages=32)
        assert vm.vepc.n_pages == 32
        assert vm.memory.total_pages == 64 * 1024 // 4

    def test_duplicate_vm_rejected(self, machine):
        machine.hypervisor.create_vm("vm", memory_mb=64)
        with pytest.raises(HypervisorError):
            machine.hypervisor.create_vm("vm", memory_mb=64)

    def test_epc_info_hypercall(self, machine):
        vm = machine.hypervisor.create_vm("vm", memory_mb=64, vepc_pages=32)
        base, pages = machine.hypervisor.hc_get_epc_info(vm)
        assert base == vm.vepc.base_gpa and pages == 32

    def test_migration_ready_flow(self, machine):
        vm = machine.hypervisor.create_vm("vm", memory_mb=64)
        assert not machine.hypervisor.migration_ready(vm)
        machine.hypervisor.hc_migration_ready(vm)
        assert machine.hypervisor.migration_ready(vm)
        machine.hypervisor.reset_migration_state(vm)
        assert not machine.hypervisor.migration_ready(vm)

    def test_upcall_requires_guest_os(self, machine):
        vm = machine.hypervisor.create_vm("vm", memory_mb=64)
        with pytest.raises(HypervisorError):
            machine.hypervisor.upcall_migration_notify(vm)

    def test_ept_violation_maps_page(self, machine):
        vm = machine.hypervisor.create_vm("vm", memory_mb=64, vepc_pages=32, premapped_fraction=0.0)
        gpa = vm.vepc.alloc_page()  # triggers on-demand mapping
        assert vm.vepc.ept.is_mapped(gpa)
        assert vm.vmcs[0].exit_reason is ExitReason.EPT_VIOLATION


class TestGuestMemoryModel:
    def test_initially_all_used_pages_dirty(self):
        memory = GuestMemoryModel(total_pages=1000, working_set_pages=100, dirty_rate_pps=10)
        assert memory.dirty_pages == memory.used_pages

    def test_dirtying_bounded_by_working_set(self):
        memory = GuestMemoryModel(total_pages=1000, working_set_pages=100, dirty_rate_pps=1000)
        memory.take_dirty()
        memory.advance(10 * 1_000_000_000)
        assert memory.dirty_pages == 100

    def test_take_dirty_resets(self):
        memory = GuestMemoryModel(total_pages=1000, working_set_pages=100, dirty_rate_pps=10)
        assert memory.take_dirty() == memory.used_pages
        assert memory.dirty_pages == 0

    def test_dirty_rate(self):
        memory = GuestMemoryModel(total_pages=10_000, working_set_pages=5000, dirty_rate_pps=100)
        memory.take_dirty()
        memory.advance(1_000_000_000)
        assert memory.dirty_pages == 100

    def test_working_set_capped_by_used(self):
        memory = GuestMemoryModel(
            total_pages=1000, working_set_pages=900, dirty_rate_pps=10, used_pages=200
        )
        assert memory.working_set_pages == 200


class TestPreCopy:
    def make_vm(self, machine, dirty_rate=2_000):
        return machine.hypervisor.create_vm(
            "vm", memory_mb=256, vepc_pages=32, dirty_rate_pps=dirty_rate
        )

    def test_migration_converges(self, machine):
        vm = self.make_vm(machine)
        report = machine.qemu.migrate(vm)
        assert report.precopy_rounds >= 1
        assert report.total_ns > 0
        assert not vm.paused

    def test_transfers_at_least_used_memory(self, machine):
        vm = self.make_vm(machine)
        report = machine.qemu.migrate(vm)
        assert report.transferred_bytes >= vm.memory.used_pages * PAGE_SIZE

    def test_higher_dirty_rate_more_rounds_and_bytes(self, clock, trace):
        results = []
        for rate in (1_000, 200_000):
            machine = Machine(f"host-{rate}", VirtualClock(), trace, DeterministicRng("x"))
            vm = machine.hypervisor.create_vm("vm", memory_mb=256, dirty_rate_pps=rate)
            results.append(machine.qemu.migrate(vm))
        assert results[1].transferred_bytes > results[0].transferred_bytes

    def test_downtime_much_smaller_than_total(self, machine):
        vm = self.make_vm(machine)
        report = machine.qemu.migrate(vm)
        assert report.downtime_ns < report.total_ns / 100

    def test_prepare_hook_runs_and_counts(self, machine):
        vm = self.make_vm(machine)
        ran = []

        def hook():
            ran.append(True)
            machine.clock.advance(5_000_000)
            return 5_000_000
        report = machine.qemu.migrate(vm, prepare_hook=hook)
        assert ran
        assert report.prep_ns >= 5_000_000
        assert report.downtime_ns >= 5_000_000

    def test_prepare_hook_downtime_override(self, machine):
        vm = self.make_vm(machine)

        def hook():
            machine.clock.advance(50_000_000)  # long background work
            return 1_000_000  # only 1ms counts as downtime
        report = machine.qemu.migrate(vm, prepare_hook=hook)
        assert report.prep_ns >= 50_000_000
        assert report.downtime_ns < 20_000_000

    def test_extra_bytes_transferred_once(self, machine):
        vm = self.make_vm(machine)
        baseline_vm = machine.hypervisor.create_vm("vm2", memory_mb=256, dirty_rate_pps=2_000)
        vm.memory.park_extra_bytes(50 * 1024 * 1024)
        with_extra = machine.qemu.migrate(vm)
        without = machine.qemu.migrate(baseline_vm)
        assert with_extra.transferred_bytes - without.transferred_bytes == pytest.approx(
            50 * 1024 * 1024, rel=0.2
        )

    def test_paused_vm_rejected(self, machine):
        vm = self.make_vm(machine)
        vm.pause()
        with pytest.raises(HypervisorError):
            machine.qemu.migrate(vm)
