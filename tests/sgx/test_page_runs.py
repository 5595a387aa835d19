"""Page runs fault exactly where and as the one-page loop does.

Each case builds the same enclave on two fresh CPUs, then issues one page
run on the first and the loop of one-page instructions on the second.  The
fault (type and message), the EPCM, the page table, the measurement and
the virtual clock must come out the same; every run form gets a case per
fault.  Guest-supplied EPC indices and Version Array slots are refused
with a typed fault.
"""

from __future__ import annotations

import pytest

from repro.errors import EnclavePageFault, SgxAccessFault, SgxEpcExhausted, SgxInstructionFault
from repro.sgx import instructions as isa
from repro.sgx.cpu import SgxCpu
from repro.sgx.epc import Epc
from repro.sgx.structures import (
    PAGE_SIZE,
    VA_SLOTS_PER_PAGE,
    PageType,
    Permissions,
    SecInfo,
    Tcs,
)
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

from tests.sgx.conftest import BASE, build_raw_enclave

RW = SecInfo(PageType.REG, Permissions.RW)
TCS = SecInfo(PageType.TCS, Permissions.NONE)
SIZE = 8 * PAGE_SIZE


def _cpu(epc_pages: int = 64) -> SgxCpu:
    clock = VirtualClock()
    return SgxCpu("runs", clock, DEFAULT_COSTS, EventTrace(clock), DeterministicRng("r"), epc_pages)


def _state(cpu: SgxCpu, enclave) -> tuple:
    epc = cpu.epc
    rows = [
        (epc.is_valid(i), epc.page_type(i), epc.owner(i), epc.vaddr(i), epc.permissions(i))
        for i in range(epc.n_pages)
    ]
    pages = [epc.read(i, 0, PAGE_SIZE) for i in range(epc.n_pages)]
    return (
        cpu.clock.now_ns,
        rows,
        pages,
        dict(enclave._page_table),
        sorted(enclave._tcs),
        enclave.measurement.value,
        epc.free_count,
    )


def _outcome(call) -> tuple:
    try:
        call()
    except (SgxInstructionFault, SgxAccessFault, SgxEpcExhausted) as exc:
        return type(exc), str(exc)
    return None, ""


def _tcs(vaddr: int) -> Tcs:
    return Tcs(vaddr, "main", ossa=BASE, nssa=1)


def _eadd_case(fault: str, cpu: SgxCpu):
    enclave = isa.ecreate(cpu, BASE, SIZE)
    pages = [
        (BASE, RW, b"first", True),
        (BASE + PAGE_SIZE, RW, b"", True),
        (BASE + 2 * PAGE_SIZE, TCS, _tcs(BASE + 2 * PAGE_SIZE), True),
    ]
    middle = list(pages[1])
    if fault == "dead enclave":
        enclave.dead = True
    elif fault == "after EINIT":
        enclave.secs.initialized = True
    elif fault == "outside the range":
        middle[0] = BASE + SIZE
    elif fault == "unaligned":
        middle[0] = BASE + PAGE_SIZE + 8
    elif fault == "EPC exhausted":
        while cpu.epc.free_count > 1:
            isa.alloc_va_page(cpu)
    elif fault == "TCS content":
        middle[1] = TCS
    elif fault == "REG content type":
        middle[2] = _tcs(BASE + PAGE_SIZE)
    elif fault == "content over 4 KB":
        middle[2] = bytes(PAGE_SIZE + 1)
    elif fault == "page type":
        middle[1] = SecInfo(PageType.VA, Permissions.NONE)
    elif fault == "already mapped":
        isa.eadd(cpu, enclave, middle[0], b"", RW)
    elif fault == "named twice":
        middle[0] = BASE
    pages[1] = tuple(middle)
    return enclave, pages


EADD_FAULTS = {
    "dead enclave": SgxInstructionFault,
    "after EINIT": SgxInstructionFault,
    "outside the range": SgxInstructionFault,
    "unaligned": SgxInstructionFault,
    "EPC exhausted": SgxEpcExhausted,
    "TCS content": SgxInstructionFault,
    "REG content type": SgxInstructionFault,
    "content over 4 KB": SgxInstructionFault,
    "page type": SgxInstructionFault,
    "already mapped": SgxInstructionFault,
    "named twice": SgxInstructionFault,
}


@pytest.mark.parametrize("fault", sorted(EADD_FAULTS))
def test_eadd_run_faults_like_the_loop(fault):
    run_cpu, loop_cpu = _cpu(), _cpu()
    run_enclave, pages = _eadd_case(fault, run_cpu)
    loop_enclave, loop_pages = _eadd_case(fault, loop_cpu)

    def loop():
        for vaddr, sec_info, content, measured in loop_pages:
            isa.eadd(loop_cpu, loop_enclave, vaddr, content, sec_info)
            if measured:
                isa.eextend(loop_cpu, loop_enclave, vaddr)

    in_run = _outcome(lambda: isa.eadd_run(run_cpu, run_enclave, *map(list, zip(*pages))))
    assert in_run[0] is EADD_FAULTS[fault]
    assert in_run == _outcome(loop)
    assert _state(run_cpu, run_enclave) == _state(loop_cpu, loop_enclave)


def test_eadd_run_without_a_fault_matches_the_loop():
    run_cpu, loop_cpu = _cpu(), _cpu()
    run_enclave, pages = _eadd_case("none", run_cpu)
    loop_enclave, _ = _eadd_case("none", loop_cpu)
    isa.eadd_run(run_cpu, run_enclave, *map(list, zip(*pages)))
    for vaddr, sec_info, content, measured in pages:
        isa.eadd(loop_cpu, loop_enclave, vaddr, content, sec_info)
        if measured:
            isa.eextend(loop_cpu, loop_enclave, vaddr)
    assert _state(run_cpu, run_enclave) == _state(loop_cpu, loop_enclave)


def _eremove_case(fault: str, cpu: SgxCpu, vendor):
    enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
    run = [BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE]
    if fault == "dead enclave":
        enclave.dead = True
    elif fault == "unaligned":
        run[1] += 8
    elif fault == "unmapped page":
        run[1] = BASE + enclave.secs.size - PAGE_SIZE
    elif fault == "evicted page":
        isa.ewb(cpu, enclave, run[1], isa.alloc_va_page(cpu), 0)
    elif fault == "active TCS":
        run[1] = tcs
        enclave.tcs_at(tcs)._active = True
    elif fault == "named twice":
        run[1] = BASE
    return enclave, run


EREMOVE_FAULTS = {
    "dead enclave": SgxInstructionFault,
    "unaligned": SgxInstructionFault,
    "unmapped page": SgxAccessFault,
    "evicted page": EnclavePageFault,
    "active TCS": SgxInstructionFault,
    "named twice": SgxAccessFault,
}


@pytest.mark.parametrize("fault", sorted(EREMOVE_FAULTS))
def test_eremove_run_faults_like_the_loop(fault, vendor):
    run_cpu, loop_cpu = _cpu(), _cpu()
    run_enclave, run = _eremove_case(fault, run_cpu, vendor)
    loop_enclave, _ = _eremove_case(fault, loop_cpu, vendor)

    def loop():
        for vaddr in run:
            isa.eremove(loop_cpu, loop_enclave, vaddr)

    def outcome(call):
        try:
            call()
        except (SgxInstructionFault, SgxAccessFault, EnclavePageFault) as exc:
            return type(exc), str(exc)
        return None, ""

    in_run = outcome(lambda: isa.eremove_run(run_cpu, run_enclave, run))
    assert in_run[0] is EREMOVE_FAULTS[fault]
    assert in_run == outcome(loop)
    assert _state(run_cpu, run_enclave) == _state(loop_cpu, loop_enclave)


class TestSessionRuns:
    """The faults TestPageRuns does not arm: an unmapped page, and a
    write run's page that is not one whole 4 KB page."""

    def test_unmapped_page_faults_mid_run(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        unmapped = BASE + enclave.secs.size - PAGE_SIZE
        session = isa.eenter(cpu, enclave, tcs)
        out: list = []
        with pytest.raises(SgxAccessFault):
            session.read_pages([BASE, unmapped], out)
        assert len(out) == 1
        with pytest.raises(SgxAccessFault):
            session.write_pages([BASE, unmapped], [b"1" * PAGE_SIZE] * 2)
        assert session.read(BASE, 2) == b"11"
        isa.eexit(session)

    @pytest.mark.parametrize("size", [PAGE_SIZE - 1, PAGE_SIZE + 1])
    def test_a_page_that_is_not_4kb_faults_where_it_stands(self, cpu, vendor, size):
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        session = isa.eenter(cpu, enclave, tcs)
        run = [BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE]
        with pytest.raises(SgxInstructionFault):
            session.write_pages(run, [b"1" * PAGE_SIZE, b"2" * size, b"3" * PAGE_SIZE])
        assert session.read(run[0], 2) == b"11"
        assert session.read(run[1], 2) == b"\x00\x00"
        isa.eexit(session)


class TestUntrustedIndices:
    """The guest driver names EPC pages and VA slots; the ISA refuses any
    outside ``[0, n)`` with a typed fault and leaves the page present."""

    @pytest.mark.parametrize("slot", [VA_SLOTS_PER_PAGE, -1])
    def test_ewb_refuses_a_slot_off_the_va_page(self, cpu, vendor, slot):
        enclave, _ = build_raw_enclave(cpu, vendor)
        va = isa.alloc_va_page(cpu)
        with pytest.raises(SgxInstructionFault):
            isa.ewb(cpu, enclave, BASE, va, slot)
        assert enclave.page_present(BASE)
        assert isa._va_slots(cpu, va, VA_SLOTS_PER_PAGE - 1)[VA_SLOTS_PER_PAGE - 1] == 0

    @pytest.mark.parametrize("slot", [VA_SLOTS_PER_PAGE, -1])
    def test_eldb_refuses_a_slot_off_the_va_page(self, cpu, vendor, slot):
        enclave, _ = build_raw_enclave(cpu, vendor)
        va = isa.alloc_va_page(cpu)
        blob = isa.ewb(cpu, enclave, BASE, va, VA_SLOTS_PER_PAGE - 1)
        with pytest.raises(SgxInstructionFault):
            isa.eldb(cpu, enclave, blob, va, slot)
        assert not enclave.page_present(BASE)

    def test_a_negative_va_index_is_refused(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor)
        isa.alloc_va_page(cpu)
        va = isa.alloc_va_page(cpu)
        alias = va - cpu.epc.n_pages  # names page ``va`` from the end
        with pytest.raises(SgxInstructionFault):
            isa.ewb(cpu, enclave, BASE, alias, 0)
        assert enclave.page_present(BASE)

    @pytest.mark.parametrize("vaddr", [2**63, 2**64, -PAGE_SIZE])
    def test_eadd_refuses_an_address_off_the_enclave(self, vaddr):
        """An address no 64-bit array holds stops a run like any other
        address outside the enclave: the pages before it are added."""
        cpu = _cpu()
        enclave = isa.ecreate(cpu, BASE, SIZE)
        with pytest.raises(SgxInstructionFault, match="outside the enclave range"):
            isa.eadd(cpu, enclave, vaddr, b"", RW)
        with pytest.raises(SgxInstructionFault, match="outside the enclave range"):
            isa.eadd_run(
                cpu, enclave, [BASE, vaddr, BASE + PAGE_SIZE], [RW] * 3, [b"a"] * 3, [True] * 3
            )
        assert enclave.mapped_vaddrs() == [BASE]
        assert cpu.epc.used_count == 2  # the SECS and the one page added

    @pytest.mark.parametrize(
        "base, fault", [(2**64 - PAGE_SIZE, "64-bit address space"), (BASE + 1, "page aligned")]
    )
    def test_ecreate_refuses_a_bad_range_and_keeps_no_page(self, base, fault):
        cpu = _cpu()
        with pytest.raises(SgxInstructionFault, match=fault):
            isa.ecreate(cpu, base, SIZE)
        assert cpu.epc.used_count == 0

    def test_free_refuses_a_negative_index(self):
        epc = Epc(8)
        for i in range(8):
            epc.alloc(1, i * PAGE_SIZE, PageType.REG, Permissions.RW)
        with pytest.raises(IndexError):
            epc.free(-1)
        for run in ([0, -1], [0, 2**64]):
            with pytest.raises(IndexError):
                epc.free_run(run)
        assert epc.is_valid(7) and epc.used_count == 8

    def test_epcm_reads_refuse_a_negative_index(self):
        epc = Epc(8)
        epc.alloc(1, 0x6000, PageType.REG, Permissions.RW)
        for read in (epc.is_valid, epc.page_type, epc.owner, epc.vaddr, epc.permissions):
            with pytest.raises(IndexError):
                read(-2)
