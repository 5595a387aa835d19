"""Enclave builds that run out of EPC part-way, pinned end to end.

A build that exhausts the VM's vEPC quota evicts (LRU) before the page
that needs room; one that exhausts the host's physical EPC reclaims from
another tenant, or evicts its own pages when it is alone.  Each scenario
below pins what such a build leaves behind: the enclave's MRENCLAVE,
every EPCM row, the bytes of every valid page, the order of evictions
and reclaims, and the virtual clock.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.guestos.kernel import GuestOs
from repro.machine import Machine
from repro.migration.testbed import build_testbed
from repro.sgx import instructions as isa
from repro.sgx.structures import PAGE_SIZE
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

from tests.conftest import build_counter_app
from tests.hypervisor.test_overcommit import build_two_tenant_machine, launch_counter


@pytest.fixture
def evictions(monkeypatch):
    """Every EWB the driver issues, in order: (eid, vaddr, VA page, slot)."""
    seen: list[tuple[int, int, int, int]] = []
    ewb = isa.ewb

    def recording_ewb(cpu, enclave, vaddr, va_index, slot):
        seen.append((enclave.eid, vaddr, va_index, slot))
        return ewb(cpu, enclave, vaddr, va_index, slot)

    monkeypatch.setattr(isa, "ewb", recording_ewb)
    return seen


def _fingerprint(cpu, trace, evictions: list, mrenclaves: list[bytes]) -> str:
    epc = cpu.epc
    rows, pages = [], hashlib.sha256()
    for index in range(epc.n_pages):
        row = [
            epc.is_valid(index),
            epc.page_type(index).value,
            epc.owner(index),
            epc.vaddr(index),
            epc.permissions(index).value,
        ]
        if row != [False, "reg", -1, 0, 0]:
            rows.append([index, *row])
        if row[0]:
            pages.update(epc.read(index, 0, PAGE_SIZE))
    state = {
        "mrenclave": [m.hex() for m in mrenclaves],
        "epcm": rows,
        "pages": pages.hexdigest(),
        "evictions": evictions,
        "reclaims": [
            [event.t_ns, event.payload["victim"], event.payload["requester"]]
            for event in trace.select("kvm", "epc_reclaim")
        ],
        "clock_ns": cpu.clock.now_ns,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def test_a_build_over_the_vepc_quota(evictions):
    tb = build_testbed(seed=8, vepc_pages=24)
    app = build_counter_app(tb, tag="small")
    hw = tb.source_os.driver.hw(app.library.enclave_id)
    assert len(evictions) > 0
    assert _fingerprint(tb.source.cpu, tb.trace, evictions, [hw.secs.mrenclave]) == (
        "08288878b5d1482ad9ed9bbb0422a46cdabd83da1b44d0deaa0409c31e037f30"
    )


def test_a_build_that_reclaims_from_another_tenant(evictions):
    machine, vms = build_two_tenant_machine(epc_pages=32)
    apps = [launch_counter(machine, vms[0], "t0"), launch_counter(machine, vms[1], "t1")]
    assert machine.trace.count_of("kvm", "epc_reclaim") > 0
    mrenclaves = [
        app.guest_os.driver.hw(app.library.enclave_id).secs.mrenclave for app in apps
    ]
    assert _fingerprint(machine.cpu, machine.trace, evictions, mrenclaves) == (
        "9fb46d46596c980ddf71dd7db4bccfb187071dc4f0fddb76fbf38ece6ec397d1"
    )


def test_a_lone_tenant_build_over_the_physical_epc(evictions):
    clock = VirtualClock()
    trace = EventTrace(clock)
    machine = Machine("host", clock, trace, DeterministicRng("self"), epc_pages=16)
    vm = machine.hypervisor.create_vm("only", memory_mb=64, vepc_pages=64, premapped_fraction=1.0)
    GuestOs(machine, vm)
    app = launch_counter(machine, vm, "solo")
    assert len(evictions) > 0
    hw = vm.guest_os.driver.hw(app.library.enclave_id)
    assert _fingerprint(machine.cpu, trace, evictions, [hw.secs.mrenclave]) == (
        "a3a49558c69fc269e02091590d011359c58c7ca8962aac46c3d38837ea42879c"
    )
