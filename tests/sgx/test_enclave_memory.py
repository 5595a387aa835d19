"""EnclaveHw memory mechanics: cross-page access, faults, isolation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EnclavePageFault, SgxAccessFault, SgxInstructionFault
from repro.sgx import instructions as isa
from repro.sgx.structures import PAGE_SIZE

from tests.sgx.conftest import BASE, build_raw_enclave


class TestCrossPageAccess:
    def test_read_spanning_pages(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        session = isa.eenter(cpu, enclave, tcs)
        session.write(BASE + PAGE_SIZE - 4, b"ABCDEFGH")  # spans a boundary
        assert session.read(BASE + PAGE_SIZE - 4, 8) == b"ABCDEFGH"
        # And the two halves landed on different pages.
        assert session.read(BASE + PAGE_SIZE - 4, 4) == b"ABCD"
        assert session.read(BASE + PAGE_SIZE, 4) == b"EFGH"
        isa.eexit(session)

    def test_spanning_read_faults_if_any_page_evicted(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        va = isa.alloc_va_page(cpu)
        isa.ewb(cpu, enclave, BASE + PAGE_SIZE, va, 0)
        session = isa.eenter(cpu, enclave, tcs)
        with pytest.raises(EnclavePageFault) as excinfo:
            session.read(BASE + PAGE_SIZE - 4, 8)
        assert excinfo.value.vaddr == BASE + PAGE_SIZE
        isa.eexit(session)

    @given(
        offset=st.integers(min_value=0, max_value=2 * PAGE_SIZE - 64),
        length=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_write_read_roundtrip_property(self, offset, length):
        from repro.crypto.keys import KeyPair
        from repro.crypto.rsa import generate_rsa_keypair
        from repro.sgx.cpu import SgxCpu
        from repro.sim.clock import VirtualClock
        from repro.sim.costs import DEFAULT_COSTS
        from repro.sim.rng import DeterministicRng
        from repro.sim.trace import EventTrace

        clock = VirtualClock()
        cpu = SgxCpu("prop", clock, DEFAULT_COSTS, EventTrace(clock), DeterministicRng("p"), epc_pages=64)
        vendor = KeyPair(generate_rsa_keypair(DeterministicRng("pv")), "v")
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        session = isa.eenter(cpu, enclave, tcs)
        payload = bytes((offset + i) % 256 for i in range(length))
        session.write(BASE + offset, payload)
        assert session.read(BASE + offset, length) == payload
        isa.eexit(session)


#: Fault -> the exception every access touching the faulting page raises.
_FAULTS = {
    "outside the range": SgxAccessFault,
    "unmapped page": SgxAccessFault,
    "evicted page": EnclavePageFault,
    "missing permission": SgxAccessFault,
    "closed session": SgxAccessFault,
    "dead enclave": SgxInstructionFault,
}


def _armed(cpu, vendor, fault):
    """An open or closed session, and the page where ``fault`` waits.

    The page before it is a clean RW page (or equally faulty), so an
    access crossing into the faulting page meets the same fault.
    """
    enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
    page = BASE + PAGE_SIZE
    if fault == "outside the range":
        page = BASE - PAGE_SIZE
    elif fault == "unmapped page":
        page = BASE + enclave.secs.size - PAGE_SIZE
    elif fault == "evicted page":
        isa.ewb(cpu, enclave, page, isa.alloc_va_page(cpu), 0)
    elif fault == "missing permission":
        page = tcs  # TCS pages carry no R/W permission
    session = isa.eenter(cpu, enclave, tcs)
    if fault == "closed session":
        isa.eexit(session)
    elif fault == "dead enclave":
        # EREMOVE refuses an active TCS, so mark the SECS removed under
        # the open session directly.
        enclave.dead = True
    return session, page


class TestOneFaultOrder:
    """A single-page access, checked once, faults like a page-crossing one."""

    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_single_page_and_crossing_access_fault_alike(self, cpu, vendor, fault, op):
        session, page = _armed(cpu, vendor, fault)

        def access(vaddr):
            if op == "read":
                session.read(vaddr, 8)
            else:
                session.write(vaddr, b"\x5a" * 8)

        with pytest.raises(_FAULTS[fault]) as single:
            access(page + 16)
        with pytest.raises(_FAULTS[fault]) as crossing:
            access(page - 4)
        assert type(single.value) is type(crossing.value) is _FAULTS[fault]


class TestPageRuns:
    """A page run checks each page as a one-page access does, in run order:
    it faults where and as its first faulting page would, after serving
    the pages before it, and a retry resumes at that page."""

    @staticmethod
    def _run_with(cpu, vendor, fault):
        """An open session and a three-page run whose middle page faults."""
        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        first, middle, last = BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE
        if fault == "outside the range":
            middle = BASE - PAGE_SIZE
        elif fault == "missing permission":
            middle = tcs  # TCS pages carry no R/W permission
        elif fault == "evicted page":
            isa.ewb(cpu, enclave, middle, isa.alloc_va_page(cpu), 0)
        session = isa.eenter(cpu, enclave, tcs)
        session.write(first, b"F" * PAGE_SIZE)
        session.write(last, b"L" * PAGE_SIZE)
        if fault == "dead enclave":
            enclave.dead = True
        return session, (first, middle, last)

    @pytest.mark.parametrize("fault", ["evicted page", "missing permission", "outside the range"])
    def test_read_run_faults_mid_run_like_a_single_read(self, cpu, vendor, fault):
        session, run = self._run_with(cpu, vendor, fault)
        with pytest.raises(_FAULTS[fault]) as single:
            session.read(run[1], PAGE_SIZE)
        out: list[bytes] = []
        with pytest.raises(_FAULTS[fault]) as in_run:
            session.read_pages(run, out)
        assert type(in_run.value) is type(single.value)
        assert out == [b"F" * PAGE_SIZE]  # the page before the fault was read

    @pytest.mark.parametrize("fault", ["evicted page", "missing permission", "outside the range"])
    def test_write_run_faults_mid_run_like_a_single_write(self, cpu, vendor, fault):
        session, run = self._run_with(cpu, vendor, fault)
        with pytest.raises(_FAULTS[fault]) as single:
            session.write(run[1], b"x" * PAGE_SIZE)
        with pytest.raises(_FAULTS[fault]) as in_run:
            session.write_pages(run, [b"1" * PAGE_SIZE, b"2" * PAGE_SIZE, b"3" * PAGE_SIZE])
        assert type(in_run.value) is type(single.value)
        assert session.read(run[0], 4) == b"1111"  # written before the fault
        assert session.read(run[2], 4) == b"LLLL"  # never reached

    def test_dead_enclave_faults_on_the_first_page(self, cpu, vendor):
        session, run = self._run_with(cpu, vendor, "dead enclave")
        out: list[bytes] = []
        with pytest.raises(SgxInstructionFault):
            session.read_pages(run, out)
        with pytest.raises(SgxInstructionFault):
            session.write_pages(run, [b"1" * PAGE_SIZE] * 3)
        assert out == []

    def test_closed_session_refuses_a_run(self, cpu, vendor):
        session, run = self._run_with(cpu, vendor, "evicted page")
        isa.eexit(session)
        with pytest.raises(SgxAccessFault):
            session.read_pages(run, [])
        with pytest.raises(SgxAccessFault):
            session.write_pages(run, [b"1" * PAGE_SIZE] * 3)

    def test_runtime_resolves_an_evicted_page_mid_run(self, cpu, vendor):
        """The SDK runtime reloads an evicted page where the run meets it
        and resumes there: one fault per eviction, every page served."""
        from types import SimpleNamespace

        from repro.durability import DurableStore, Journal
        from repro.sdk.runtime import EnclaveRuntime

        enclave, tcs = build_raw_enclave(cpu, vendor, n_data_pages=3)
        run = (BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE)
        pages = [b"1" * PAGE_SIZE, b"2" * PAGE_SIZE, b"3" * PAGE_SIZE]
        evicted, faults = {}, []

        def evict(vaddr):
            va = isa.alloc_va_page(cpu)
            evicted[vaddr] = (isa.ewb(cpu, enclave, vaddr, va, 0), va)

        def reload(vaddr):
            faults.append(vaddr)
            blob, va = evicted.pop(vaddr)
            isa.eldb(cpu, enclave, blob, va, 0)

        session = isa.eenter(cpu, enclave, tcs)
        journal = Journal(DurableStore(cpu.clock, cpu.trace, 0), "enclave/raw", "source")
        rt = EnclaveRuntime(session, SimpleNamespace(layout=None), reload, None, journal)
        evict(run[1])
        rt.write_pages(run, pages)
        evict(run[1])
        assert rt.read_pages(run) == pages
        assert faults == [run[1], run[1]]
        isa.eexit(session)


class TestIsolation:
    def test_two_enclaves_cannot_alias_pages(self, cpu, vendor):
        enclave_a, tcs_a = build_raw_enclave(cpu, vendor, data=b"AAAA")
        # Second enclave at a different base cannot read A's range.
        from repro.sgx.structures import PageType, Permissions, SecInfo, SigStruct, Tcs

        base_b = BASE + 0x100000
        enclave_b = isa.ecreate(cpu, base_b, 8 * PAGE_SIZE)
        isa.eadd(cpu, enclave_b, base_b, b"BBBB", SecInfo(PageType.REG, Permissions.RW))
        for i in range(2):
            isa.eadd(cpu, enclave_b, base_b + (1 + i) * PAGE_SIZE, b"", SecInfo(PageType.REG, Permissions.RW))
        tcs_vaddr_b = base_b + 3 * PAGE_SIZE
        isa.eadd(
            cpu, enclave_b, tcs_vaddr_b,
            Tcs(tcs_vaddr_b, "main", ossa=base_b + PAGE_SIZE, nssa=2),
            SecInfo(PageType.TCS, Permissions.NONE),
        )
        for page in enclave_b.mapped_vaddrs():
            isa.eextend(cpu, enclave_b, page)
        mr = enclave_b.measurement.value
        unsigned = SigStruct(mr, "v", vendor.public.n, b"")
        isa.einit(cpu, enclave_b, SigStruct(mr, "v", vendor.public.n, vendor.private.sign(unsigned.signed_body())))

        session_b = isa.eenter(cpu, enclave_b, tcs_vaddr_b)
        with pytest.raises(SgxAccessFault):
            session_b.read(BASE, 4)  # A's address: outside B's range
        assert session_b.read(base_b, 4) == b"BBBB"
        isa.eexit(session_b)

    def test_session_bound_to_its_enclave_pages_only(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        unmapped = BASE + enclave.secs.size - PAGE_SIZE  # in range, never EADDed
        with pytest.raises(SgxAccessFault):
            session.read(unmapped, 4)
        isa.eexit(session)

    def test_hw_write_rejects_dead_enclave(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor)
        isa.destroy_enclave(cpu, enclave)
        from repro.errors import SgxInstructionFault

        with pytest.raises(SgxInstructionFault):
            enclave.hw_read(BASE, 4)
