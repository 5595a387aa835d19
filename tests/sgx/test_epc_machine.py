"""A search over one SGX CPU's EPC: every instruction against a plain model.

The model is the one-page loop: an EPC allocator (lowest never-used index
first, freed indices reused last-freed first), the EPCM row of every
index, the bytes of every page, each enclave's page table and running
MRENCLAVE, and the virtual clock.  A page run is predicted as the loop
of its one-page instructions, so a run that faults must stop where that
loop stops, with the same fault, the same pages applied and the same
clock.  After every step the machine compares the whole model with the
hardware: every EPCM field of every index, the bytes of every page,
used + free, ``pages_of`` and each open measurement.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import EnclavePageFault, SgxAccessFault, SgxEpcExhausted, SgxInstructionFault
from repro.sgx import instructions as isa
from repro.sgx.cpu import SgxCpu
from repro.sgx.structures import (
    PAGE_SIZE,
    VA_SLOTS_PER_PAGE,
    PageType,
    Permissions,
    SecInfo,
    SigStruct,
    Tcs,
)
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS as COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

N_PAGES = 24
#: Pages in each enclave's range; one page past it is "outside".
SPAN_PAGES = 6
STRIDE = 0x10_0000
BASE = 0x4000_0000
#: The tier-1 budget, and the soak job's (a constant, not a knob).
TIER1_EXAMPLES = 40
SOAK_EXAMPLES = 1500

_CONTENTS = (b"", b"\x07" * 100, bytes(range(256)) * 16)
_PERMS = (Permissions.RW, Permissions.R, Permissions.RX)
_VENDOR: list[KeyPair] = []


def _vendor() -> KeyPair:
    if not _VENDOR:
        _VENDOR.append(KeyPair(generate_rsa_keypair(DeterministicRng("epc-machine")), "vendor"))
    return _VENDOR[0]


def _record(tag: bytes, payload: bytes) -> bytes:
    return len(tag).to_bytes(1, "big") + tag + payload


class _Enclave:
    """What the model knows of one enclave."""

    def __init__(self, eid: int, base: int) -> None:
        self.eid = eid
        self.base = base
        self.size = SPAN_PAGES * PAGE_SIZE
        self.table: dict[int, int | None] = {}  # vaddr -> index, None when evicted
        self.tcs: dict[int, Tcs] = {}
        self.initialized = False
        self.hash = hashlib.sha256(
            _record(b"ECREATE", base.to_bytes(8, "little") + self.size.to_bytes(8, "little"))
        )
        self.evicted: dict[int, tuple] = {}  # vaddr -> (blob, va index, slot, bytes)

    def contains(self, vaddr: int) -> bool:
        return self.base <= vaddr < self.base + self.size


class EpcMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        clock = VirtualClock()
        self.cpu = SgxCpu(
            "machine", clock, COSTS, EventTrace(clock), DeterministicRng("machine"), epc_pages=N_PAGES
        )
        self.hw = {}  # eid -> EnclaveHw
        self.clock = 0
        self.next_eid = 1
        self.next_version = 1
        # The EPC model.
        self.high = 0
        self.freed: list[int] = []
        self.epcm = [[False, PageType.REG, -1, 0, Permissions.NONE] for _ in range(N_PAGES)]
        self.content: dict[int, bytes] = {}
        self.enclaves: dict[int, _Enclave] = {}
        self.va: dict[int, list[bool]] = {}  # VA page index -> slot in use

    # ------------------------------------------------------------ model EPC
    def _alloc(self, owner: int, vaddr: int, page_type: PageType, perms: Permissions) -> int:
        if self.freed:
            index = self.freed.pop()
        elif self.high < N_PAGES:
            index, self.high = self.high, self.high + 1
        else:
            raise SgxEpcExhausted("model")
        self.epcm[index] = [True, page_type, owner, vaddr, perms]
        return index

    def _free(self, index: int) -> None:
        row = self.epcm[index]
        row[0], row[2], row[4] = False, -1, Permissions.NONE
        self.content.pop(index, None)
        self.freed.append(index)

    def _free_count(self) -> int:
        return len(self.freed) + N_PAGES - self.high

    def _outcome(self, call):
        try:
            call()
        except (SgxAccessFault, SgxInstructionFault, SgxEpcExhausted, EnclavePageFault) as exc:
            return type(exc)
        return None

    def _pick(self, data, predicate=lambda e: True) -> _Enclave | None:
        live = [e for e in self.enclaves.values() if predicate(e)]
        return data.draw(st.sampled_from(live)) if live else None

    # ------------------------------------------------------------ build
    @rule()
    def ecreate(self) -> None:
        eid = self.next_eid
        self.next_eid += 1
        self.clock += COSTS.ecreate_ns
        base = BASE + eid * STRIDE
        expected = None if self._free_count() else SgxEpcExhausted
        box = []
        assert self._outcome(lambda: box.append(isa.ecreate(self.cpu, base, SPAN_PAGES * PAGE_SIZE))) is expected
        if expected is None:
            self._alloc(eid, 0, PageType.SECS, Permissions.NONE)
            assert box[0].eid == eid
            self.hw[eid] = box[0]
            self.enclaves[eid] = _Enclave(eid, base)

    def _predict_eadd(self, enclave: _Enclave, pages) -> type | None:
        """Apply the one-page EADD (+EEXTEND) loop to the model."""
        for vaddr, sec_info, content, measured in pages:
            self.clock += COSTS.eadd_page_ns
            if enclave.initialized or not enclave.contains(vaddr):
                return SgxInstructionFault
            if not self._free_count():
                return SgxEpcExhausted
            if vaddr in enclave.table:
                return SgxInstructionFault
            index = self._alloc(enclave.eid, vaddr, sec_info.page_type, sec_info.permissions)
            enclave.table[vaddr] = index
            if sec_info.page_type is PageType.TCS:
                enclave.tcs[vaddr] = content
                measured_bytes = content.to_bytes().ljust(PAGE_SIZE, b"\x00")
            else:
                measured_bytes = content.ljust(PAGE_SIZE, b"\x00")
                if content:
                    self.content[index] = measured_bytes
            enclave.hash.update(_record(b"EADD", vaddr.to_bytes(8, "little") + sec_info.to_bytes()))
            if measured:
                self.clock += COSTS.eextend_page_ns
                for offset in range(0, PAGE_SIZE, 256):
                    enclave.hash.update(
                        _record(
                            b"EEXTEND",
                            vaddr.to_bytes(8, "little")
                            + offset.to_bytes(4, "little")
                            + measured_bytes[offset : offset + 256],
                        )
                    )
        return None

    @rule(data=st.data(), as_run=st.booleans())
    def eadd(self, data, as_run: bool) -> None:
        enclave = self._pick(data)
        if enclave is None:
            return
        pages = []
        for _ in range(data.draw(st.integers(1, 4))):
            vaddr = enclave.base + data.draw(st.integers(0, SPAN_PAGES)) * PAGE_SIZE
            if data.draw(st.integers(0, 4)) == 0:
                tcs = Tcs(vaddr, "main", ossa=enclave.base, nssa=1)
                pages.append((vaddr, SecInfo(PageType.TCS, Permissions.NONE), tcs, True))
            else:
                sec_info = SecInfo(PageType.REG, data.draw(st.sampled_from(_PERMS)))
                content = data.draw(st.sampled_from(_CONTENTS))
                pages.append((vaddr, sec_info, content, data.draw(st.booleans())))
        hw = self.hw[enclave.eid]
        if as_run:
            call = lambda: isa.eadd_run(self.cpu, hw, *zip(*pages))  # noqa: E731
        else:

            def call():
                for vaddr, sec_info, content, measured in pages:
                    isa.eadd(self.cpu, hw, vaddr, content, sec_info)
                    if measured:
                        isa.eextend(self.cpu, hw, vaddr)

        expected = self._predict_eadd(enclave, pages)
        assert self._outcome(call) is expected

    @rule(data=st.data())
    def einit(self, data) -> None:
        enclave = self._pick(data, lambda e: not e.initialized)
        if enclave is None:
            return
        vendor = _vendor()
        mrenclave = enclave.hash.digest()
        body = SigStruct(mrenclave, "vendor", vendor.public.n, b"")
        sigstruct = SigStruct(
            mrenclave, "vendor", vendor.public.n, vendor.private.sign(body.signed_body())
        )
        self.clock += COSTS.einit_ns
        isa.einit(self.cpu, self.hw[enclave.eid], sigstruct)
        enclave.initialized = True
        assert self.hw[enclave.eid].secs.mrenclave == mrenclave

    # ------------------------------------------------------------ sessions
    def _enterable(self, enclave: _Enclave) -> bool:
        return enclave.initialized and any(enclave.table.get(v) is not None for v in enclave.tcs)

    def _page_fault(self, enclave: _Enclave, page: int, needed: Permissions) -> type | None:
        """The fault a one-page access meets at ``page``, or None."""
        if not enclave.contains(page) or page not in enclave.table:
            return SgxAccessFault
        index = enclave.table[page]
        if index is None:
            return EnclavePageFault
        if needed not in self.epcm[index][4]:
            return SgxAccessFault
        return None

    def _page_bytes(self, index: int) -> bytes:
        return self.content.get(index, bytes(PAGE_SIZE))

    def _session(self, data, enclave: _Enclave):
        self.clock += COSTS.eenter_ns + COSTS.eexit_ns
        tcs = data.draw(
            st.sampled_from(sorted(v for v in enclave.tcs if enclave.table.get(v) is not None))
        )
        return isa.eenter(self.cpu, self.hw[enclave.eid], tcs)

    @rule(data=st.data(), write=st.booleans())
    def access(self, data, write: bool) -> None:
        """A sub-page read or write, possibly crossing into the next page."""
        enclave = self._pick(data, self._enterable)
        if enclave is None:
            return
        page = enclave.base + data.draw(st.integers(-1, SPAN_PAGES)) * PAGE_SIZE
        offset = data.draw(st.sampled_from([0, 100, PAGE_SIZE - 8]))
        n = data.draw(st.sampled_from([1, 8, 16]))
        vaddr = page + offset
        needed = Permissions.W if write else Permissions.R
        if not enclave.contains(vaddr):
            expected = SgxAccessFault
        else:
            last = (vaddr + n - 1) - (vaddr + n - 1) % PAGE_SIZE
            expected = next(
                (
                    fault
                    for p in range(page, last + 1, PAGE_SIZE)
                    if (fault := self._page_fault(enclave, p, needed))
                ),
                None,
            )
        payload = data.draw(st.binary(min_size=n, max_size=n))
        session = self._session(data, enclave)
        got = []
        if write:
            outcome = self._outcome(lambda: session.write(vaddr, payload))
        else:
            outcome = self._outcome(lambda: got.append(session.read(vaddr, n)))
        isa.eexit(session)
        assert outcome is expected
        if expected is not None:
            return
        cursor, view = vaddr, payload
        while cursor < vaddr + n:
            base = cursor - cursor % PAGE_SIZE
            take = min(vaddr + n - cursor, base + PAGE_SIZE - cursor)
            index = enclave.table[base]
            old = self._page_bytes(index)
            at = cursor - base
            if write:
                self.content[index] = old[:at] + view[:take] + old[at + take :]
                view = view[take:]
            else:
                assert got[0][cursor - vaddr : cursor - vaddr + take] == old[at : at + take]
            cursor += take

    @rule(data=st.data(), write=st.booleans())
    def page_run(self, data, write: bool) -> None:
        """A whole-page run through read_pages / write_pages."""
        enclave = self._pick(data, self._enterable)
        if enclave is None:
            return
        run = [
            enclave.base + data.draw(st.integers(-1, SPAN_PAGES)) * PAGE_SIZE
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        pages = [data.draw(st.sampled_from(_CONTENTS[1:])).ljust(PAGE_SIZE, b"\x00")[:PAGE_SIZE] for _ in run]
        needed = Permissions.W if write else Permissions.R
        stop, expected = len(run), None
        for i, vaddr in enumerate(run):
            fault = self._page_fault(enclave, vaddr, needed)
            if fault is not None:
                stop, expected = i, fault
                break
        session = self._session(data, enclave)
        rows = np.full((len(run), PAGE_SIZE), 0xA5, np.uint8)
        if write:
            outcome = self._outcome(lambda: session.write_pages(run, pages))
        else:
            outcome = self._outcome(lambda: session.read_pages(run, rows))
        isa.eexit(session)
        assert outcome is expected
        for i, vaddr in enumerate(run[:stop]):
            index = enclave.table[vaddr]
            if write:
                self.content[index] = pages[i]
            else:
                assert bytes(rows[i]) == self._page_bytes(index)
        if not write:
            assert (rows[stop:] == 0xA5).all()

    # ------------------------------------------------------------ paging
    @rule()
    def alloc_va(self) -> None:
        expected = None if self._free_count() else SgxEpcExhausted
        box = []
        assert self._outcome(lambda: box.append(isa.alloc_va_page(self.cpu))) is expected
        if expected is None:
            index = self._alloc(0, 0, PageType.VA, Permissions.NONE)
            assert box[0] == index
            self.va[index] = [False] * VA_SLOTS_PER_PAGE

    @rule(data=st.data())
    def ewb(self, data) -> None:
        enclave = self._pick(data, lambda e: any(i is not None for i in e.table.values()))
        if enclave is None or not self.va:
            return
        vaddr = data.draw(st.sampled_from(sorted(v for v, i in enclave.table.items() if i is not None)))
        va_index = data.draw(st.sampled_from(sorted(self.va)))
        slot = data.draw(st.sampled_from([0, 1, 7, VA_SLOTS_PER_PAGE - 1]))
        self.clock += COSTS.ewb_page_ns
        if self.va[va_index][slot]:
            assert self._outcome(
                lambda: isa.ewb(self.cpu, self.hw[enclave.eid], vaddr, va_index, slot)
            ) is SgxInstructionFault
            return
        index = enclave.table[vaddr]
        blob = isa.ewb(self.cpu, self.hw[enclave.eid], vaddr, va_index, slot)
        assert blob.version == self.next_version
        self.next_version += 1
        self.va[va_index][slot] = True
        enclave.evicted[vaddr] = (blob, va_index, slot, self._page_bytes(index))
        enclave.table[vaddr] = None
        self._free(index)

    @rule(data=st.data())
    def eldu(self, data) -> None:
        enclave = self._pick(data, lambda e: bool(e.evicted))
        if enclave is None:
            return
        vaddr = data.draw(st.sampled_from(sorted(enclave.evicted)))
        blob, va_index, slot, content = enclave.evicted[vaddr]
        self.clock += COSTS.eldb_page_ns
        if not self._free_count():
            assert self._outcome(
                lambda: isa.eldu(self.cpu, self.hw[enclave.eid], blob, va_index, slot)
            ) is SgxEpcExhausted
            return
        isa.eldu(self.cpu, self.hw[enclave.eid], blob, va_index, slot)
        del enclave.evicted[vaddr]
        self.va[va_index][slot] = False
        index = self._alloc(enclave.eid, vaddr, blob.page_type, blob.permissions)
        enclave.table[vaddr] = index
        if blob.page_type is PageType.REG and content != bytes(PAGE_SIZE):
            self.content[index] = content
        # An evicted page reloads to its own bytes.
        assert self.cpu.epc.read(index, 0, PAGE_SIZE) == content

    # ------------------------------------------------------------ teardown
    @rule(data=st.data(), as_run=st.booleans())
    def eremove(self, data, as_run: bool) -> None:
        enclave = self._pick(data, lambda e: bool(e.table))
        if enclave is None:
            return
        mapped = sorted(enclave.table)
        run = [
            data.draw(st.sampled_from(mapped + [enclave.base + SPAN_PAGES * PAGE_SIZE]))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        hw = self.hw[enclave.eid]
        if as_run:
            call = lambda: isa.eremove_run(self.cpu, hw, run)  # noqa: E731
        else:

            def call():
                for vaddr in run:
                    isa.eremove(self.cpu, hw, vaddr)

        expected = None
        for vaddr in run:
            self.clock += COSTS.eremove_page_ns
            if vaddr not in enclave.table:
                expected = SgxAccessFault
                break
            if enclave.table[vaddr] is None:
                expected = EnclavePageFault
                break
            self._free(enclave.table.pop(vaddr))
            enclave.tcs.pop(vaddr, None)
        assert self._outcome(call) is expected

    @rule(data=st.data())
    def destroy(self, data) -> None:
        enclave = self._pick(data)
        if enclave is None:
            return
        isa.destroy_enclave(self.cpu, self.hw.pop(enclave.eid))
        for vaddr in sorted(enclave.table):
            if enclave.table[vaddr] is not None:
                self.clock += COSTS.eremove_page_ns
                self._free(enclave.table[vaddr])
        secs = next(i for i, row in enumerate(self.epcm) if row[0] and row[1] is PageType.SECS and row[2] == enclave.eid)
        self._free(secs)
        del self.enclaves[enclave.eid]
        assert enclave.eid not in self.cpu.enclaves

    # ------------------------------------------------------------ oracles
    @invariant()
    def epcm_matches(self) -> None:
        epc = self.cpu.epc
        for index, (valid, page_type, owner, vaddr, perms) in enumerate(self.epcm):
            assert epc.is_valid(index) == valid, index
            assert epc.page_type(index) is page_type, index
            assert epc.owner(index) == owner, index
            assert epc.vaddr(index) == vaddr, index
            assert epc.permissions(index) == perms, index

    @invariant()
    def bytes_match(self) -> None:
        for index in range(N_PAGES):
            assert self.cpu.epc.read(index, 0, PAGE_SIZE) == self._page_bytes(index), index

    @invariant()
    def counts_match(self) -> None:
        epc = self.cpu.epc
        assert epc.free_count == self._free_count()
        assert epc.used_count + epc.free_count == N_PAGES
        for eid in self.enclaves:
            assert epc.pages_of(eid) == sorted(
                i for i, row in enumerate(self.epcm) if row[0] and row[2] == eid
            )

    @invariant()
    def measurement_and_clock_match(self) -> None:
        for eid, enclave in self.enclaves.items():
            assert self.hw[eid].measurement.value == enclave.hash.digest()
        assert self.cpu.clock.now_ns == self.clock


TestEpcMachine = EpcMachine.TestCase
TestEpcMachine.settings = settings(
    max_examples=TIER1_EXAMPLES, stateful_step_count=30, deadline=None
)


@pytest.mark.soak
def test_epc_machine_at_depth(request):
    """The same machine at the soak job's budget (``-m soak``)."""
    if "soak" not in (request.config.option.markexpr or ""):
        pytest.skip("the deep search runs in the soak job (-m soak)")
    run_state_machine_as_test(
        EpcMachine,
        settings=settings(max_examples=SOAK_EXAMPLES, stateful_step_count=60, deadline=None),
    )
