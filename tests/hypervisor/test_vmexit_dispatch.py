"""VMExit dispatch with the Enclave Interruption bit (§VI-A)."""

import pytest

from repro.hypervisor.vmcs import ExitReason
from repro.machine import Machine
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace


@pytest.fixture
def machine():
    clock = VirtualClock()
    return Machine("host", clock, EventTrace(clock), DeterministicRng("vmx"))


@pytest.fixture
def vm(machine):
    return machine.hypervisor.create_vm("vm", memory_mb=64)


class TestVmexitDispatch:
    def test_handler_invoked(self, machine, vm):
        calls = []
        machine.hypervisor.handle_vmexit(
            vm, ExitReason.EXTERNAL_INTERRUPT, in_enclave=False, handler=lambda: calls.append(1)
        )
        assert calls == [1]

    def test_enclave_bit_cleared_before_reusing_original_handlers(self, machine, vm):
        # "currently we clear the bit in EXIT_REASON field and then reuse
        # the original handlers" — after dispatch, the bit must be gone.
        machine.hypervisor.handle_vmexit(
            vm, ExitReason.ILLEGAL_INSTRUCTION, in_enclave=True
        )
        assert not vm.vmcs[0].enclave_interruption
        assert vm.vmcs[0].exit_reason is ExitReason.ILLEGAL_INSTRUCTION

    def test_qualification_passed_through(self, machine, vm):
        machine.hypervisor.handle_vmexit(
            vm, ExitReason.EXTERNAL_INTERRUPT, in_enclave=True, vector=32
        )
        assert vm.vmcs[0].exit_qualification == {"vector": 32}

    def test_exit_charges_time(self, machine, vm):
        before = machine.clock.now_ns
        machine.hypervisor.handle_vmexit(vm, ExitReason.HYPERCALL, in_enclave=False)
        assert machine.clock.now_ns > before

    def test_ept_violation_path_keeps_bit_until_mapped(self, machine, vm):
        # The EPT-violation handler is the one path that *uses* the bit
        # (to route to the vEPC mapper) before clearing it.
        gpa = vm.vepc.base_gpa
        machine.hypervisor.handle_ept_violations(vm.name, [gpa])
        assert vm.vmcs[0].exit_reason is ExitReason.EPT_VIOLATION
        assert not vm.vmcs[0].enclave_interruption  # cleared after mapping
        assert vm.vepc.ept.is_mapped(gpa)
