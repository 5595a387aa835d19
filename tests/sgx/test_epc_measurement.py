"""EPC allocation/EPCM bookkeeping and MRENCLAVE computation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx import instructions as isa
from repro.sgx.epc import Epc
from repro.sgx.measurement import MeasurementLog
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, SecInfo

from tests.sgx.conftest import private_pages, resident_pages


class TestEpc:
    def test_alloc_marks_entry(self):
        epc = Epc(16)
        index = epc.alloc(5, 0x1000, PageType.REG, Permissions.RW)
        assert epc.is_valid(index) and epc.owner(index) == 5 and epc.vaddr(index) == 0x1000
        assert epc.permissions(index) == Permissions.RW

    def test_exhaustion(self):
        epc = Epc(8)
        for i in range(8):
            epc.alloc(1, i * PAGE_SIZE, PageType.REG, Permissions.RW)
        with pytest.raises(SgxEpcExhausted):
            epc.alloc(1, 0x9000, PageType.REG, Permissions.RW)

    def test_free_recycles(self):
        epc = Epc(8)
        pages = [epc.alloc(1, i * PAGE_SIZE, PageType.REG, Permissions.RW) for i in range(8)]
        epc.free(pages[3])
        assert epc.free_count == 1
        epc.alloc(2, 0x0, PageType.REG, Permissions.R)  # reuses the slot

    def test_free_scrubs_content(self):
        epc = Epc(8)
        index = epc.alloc(1, 0, PageType.REG, Permissions.RW)
        epc.write(index, 0, b"SECRET"[:5])
        epc.free(index)
        assert epc.read(index, 0, 5) == b"\x00" * 5

    def test_double_free_rejected(self):
        epc = Epc(8)
        index = epc.alloc(1, 0, PageType.REG, Permissions.RW)
        epc.free(index)
        with pytest.raises(SgxInstructionFault):
            epc.free(index)

    def test_pages_of_filters_by_owner(self):
        epc = Epc(16)
        epc.alloc(1, 0x1000, PageType.REG, Permissions.RW)
        epc.alloc(2, 0x2000, PageType.REG, Permissions.RW)
        epc.alloc(1, 0x3000, PageType.REG, Permissions.RW)
        assert len(epc.pages_of(1)) == 2
        assert len(epc.pages_of(2)) == 1

    def test_counts(self):
        epc = Epc(16)
        assert epc.free_count == 16 and epc.used_count == 0
        epc.alloc(1, 0, PageType.REG, Permissions.RW)
        assert epc.free_count == 15 and epc.used_count == 1

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Epc(4)


def _eadd(log: MeasurementLog, vaddr: int, sec_info: SecInfo) -> None:
    """Log one unmeasured EADD: a one-page run."""
    log.add_run(
        np.array([vaddr], dtype=np.uint64),
        np.frombuffer(sec_info.to_bytes(), dtype=np.uint8).reshape(1, 64),
        np.zeros(1, dtype=bool),
        [b""],
    )


class TestMeasurement:
    def sec_info(self):
        return SecInfo(PageType.REG, Permissions.RW)

    def test_same_sequence_same_digest(self):
        logs = [MeasurementLog() for _ in range(2)]
        for log in logs:
            log.ecreate(0x1000, 0x4000)
            _eadd(log, 0x1000, self.sec_info())
            log.eextend(0x1000, b"A" * PAGE_SIZE)
        assert logs[0].finalize() == logs[1].finalize()

    def test_content_changes_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        for log, fill in ((a, b"A"), (b, b"B")):
            log.ecreate(0x1000, 0x4000)
            _eadd(log, 0x1000, self.sec_info())
            log.eextend(0x1000, fill * PAGE_SIZE)
        assert a.finalize() != b.finalize()

    def test_layout_changes_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        a.ecreate(0x1000, 0x4000)
        b.ecreate(0x1000, 0x8000)
        assert a.finalize() != b.finalize()

    def test_permissions_change_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        a.ecreate(0, 0x1000)
        b.ecreate(0, 0x1000)
        _eadd(a, 0, SecInfo(PageType.REG, Permissions.RW))
        _eadd(b, 0, SecInfo(PageType.REG, Permissions.RX))
        assert a.finalize() != b.finalize()

    def test_order_matters(self):
        a, b = MeasurementLog(), MeasurementLog()
        for log, order in ((a, (0x1000, 0x2000)), (b, (0x2000, 0x1000))):
            log.ecreate(0, 0x10000)
            for vaddr in order:
                _eadd(log, vaddr, self.sec_info())
        assert a.finalize() != b.finalize()

    def test_no_updates_after_finalize(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        log.finalize()
        with pytest.raises(SgxInstructionFault):
            _eadd(log, 0, self.sec_info())

    def test_eextend_requires_full_page(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        with pytest.raises(SgxInstructionFault):
            log.eextend(0, b"short")

    def test_finalize_idempotent(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        assert log.finalize() == log.finalize() == log.value


def _eextend_records_oracle(running, vaddr: int, content: bytes) -> None:
    """EEXTEND as the hardware logs it: 16 records of 256 content bytes,
    each ``len(tag) || tag || vaddr || offset || chunk``, one update each."""
    for offset in range(0, PAGE_SIZE, 256):
        running.update(
            bytes([len(b"EEXTEND")])
            + b"EEXTEND"
            + vaddr.to_bytes(8, "little")
            + offset.to_bytes(4, "little")
            + content[offset : offset + 256]
        )


class TestVectorizedEextend:
    @settings(max_examples=30, deadline=None)
    @given(
        pages=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**48).map(lambda v: v * PAGE_SIZE),
                # A page's worth of content, expanded from a short seed.
                st.binary(max_size=32).map(lambda seed: hashlib.shake_256(seed).digest(PAGE_SIZE)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_equals_the_per_record_oracle(self, pages):
        log, running = MeasurementLog(), hashlib.sha256()
        for vaddr, content in pages:
            # bytes, a bytearray (an EPC page) and a view all measure alike.
            for buffer in (content, bytearray(content), memoryview(content)):
                log.eextend(vaddr, buffer)
                _eextend_records_oracle(running, vaddr, content)
        assert log.value == running.digest()

    def test_logs_do_not_share_their_record_buffer(self):
        a, b = MeasurementLog(), MeasurementLog()
        a.eextend(0x1000, b"A" * PAGE_SIZE)
        b.eextend(0x2000, b"B" * PAGE_SIZE)
        a.eextend(0x3000, b"C" * PAGE_SIZE)
        running = hashlib.sha256()
        _eextend_records_oracle(running, 0x1000, b"A" * PAGE_SIZE)
        _eextend_records_oracle(running, 0x3000, b"C" * PAGE_SIZE)
        assert a.value == running.digest()

    def test_empty_eadd_measures_as_an_explicit_zero_page(self, cpu):
        """EADD of no content leaves the page's arena memory untouched,
        and EEXTEND reads it without backing it; EEXTEND measures it
        exactly as a page EADDed with 4 KB of zeros."""
        digests = []
        for content in (b"", bytes(PAGE_SIZE)):
            enclave = isa.ecreate(cpu, 0x4000_0000, 2 * PAGE_SIZE)
            vaddr = enclave.secs.base
            isa.eadd(cpu, enclave, vaddr, content, SecInfo(PageType.REG, Permissions.RW))
            index = enclave._page_index(vaddr)
            assert (index in resident_pages(cpu.epc)) == (content != b"")
            assert cpu.epc.read(index, 0, PAGE_SIZE) == bytes(PAGE_SIZE)
            isa.eextend(cpu, enclave, vaddr)
            assert (index in private_pages(cpu.epc)) == (content != b"")  # read in place
            digests.append(enclave.measurement.value)
            isa.destroy_enclave(cpu, enclave)
        assert digests[0] == digests[1]


class TestSecInfoBytes:
    def test_encoded_once_per_value(self):
        info = SecInfo(PageType.REG, Permissions.RX)
        assert info.to_bytes() is info.to_bytes()
        assert info.to_bytes() == f"reg:{Permissions.RX.value}".encode().ljust(64, b"\x00")
        assert SecInfo(PageType.REG, Permissions.RX) == info  # caching adds no field
