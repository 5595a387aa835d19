"""The SGX instruction set: build, entry/exit, AEX/ERESUME, paging.

These are the hardware semantics the paper's protocol leans on; each test
names the behaviour it pins down.
"""

import pytest

from repro.errors import (
    EnclavePageFault,
    SgxAccessFault,
    SgxInstructionFault,
    SgxMacMismatch,
)
from repro.crypto.keys import KeyPair
from repro.crypto.rsa import generate_rsa_keypair
from repro.sgx import instructions as isa
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, SecInfo, SigStruct
from repro.sim.rng import DeterministicRng

from tests.sgx.conftest import BASE, build_raw_enclave


class TestBuild:
    def test_same_image_same_measurement_across_cpus(self, cpu, second_cpu, vendor):
        enclave_a, _ = build_raw_enclave(cpu, vendor)
        enclave_b, _ = build_raw_enclave(second_cpu, vendor)
        assert enclave_a.secs.mrenclave == enclave_b.secs.mrenclave

    def test_different_content_different_measurement(self, cpu, vendor):
        enclave_a, _ = build_raw_enclave(cpu, vendor, data=b"AAAA")
        enclave_b, _ = build_raw_enclave(cpu, vendor, data=b"BBBB")
        assert enclave_a.secs.mrenclave != enclave_b.secs.mrenclave

    def test_einit_rejects_wrong_measurement(self, cpu, vendor):
        enclave = isa.ecreate(cpu, BASE, 4 * PAGE_SIZE)
        isa.eadd(cpu, enclave, BASE, b"x", SecInfo(PageType.REG, Permissions.RW))
        bad = SigStruct(b"\x00" * 32, "vendor", vendor.public.n, b"")
        bad = SigStruct(
            b"\x00" * 32, "vendor", vendor.public.n, vendor.private.sign(bad.signed_body())
        )
        with pytest.raises(SgxInstructionFault):
            isa.einit(cpu, enclave, bad)

    def test_einit_rejects_bad_signature(self, cpu, vendor):
        enclave = isa.ecreate(cpu, BASE, 4 * PAGE_SIZE)
        isa.eadd(cpu, enclave, BASE, b"x", SecInfo(PageType.REG, Permissions.RW))
        mrenclave = enclave.measurement.value
        forged = SigStruct(mrenclave, "vendor", vendor.public.n, b"\x01" * 128)
        with pytest.raises(Exception):
            isa.einit(cpu, enclave, forged)

    def test_eadd_after_einit_rejected(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor)
        free_vaddr = max(enclave.mapped_vaddrs()) + PAGE_SIZE
        with pytest.raises(SgxInstructionFault):
            isa.eadd(cpu, enclave, free_vaddr, b"", SecInfo(PageType.REG, Permissions.RW))

    def test_eadd_outside_range_rejected(self, cpu):
        enclave = isa.ecreate(cpu, BASE, 2 * PAGE_SIZE)
        with pytest.raises(SgxInstructionFault):
            isa.eadd(cpu, enclave, BASE + 0x100000, b"", SecInfo(PageType.REG, Permissions.RW))

    def test_double_einit_rejected(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor)
        with pytest.raises(SgxInstructionFault):
            isa.einit(cpu, enclave, None)

    def test_costs_charged(self, cpu, vendor):
        before = cpu.clock.now_ns
        build_raw_enclave(cpu, vendor)
        assert cpu.clock.now_ns > before


class TestEnterExit:
    def test_eenter_returns_cssa_in_rax(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        assert session.rax == 0
        isa.eexit(session)

    def test_eenter_before_einit_rejected(self, cpu):
        enclave = isa.ecreate(cpu, BASE, 2 * PAGE_SIZE)
        with pytest.raises(SgxInstructionFault):
            isa.eenter(cpu, enclave, BASE)

    def test_tcs_busy_while_inside(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        with pytest.raises(SgxInstructionFault):
            isa.eenter(cpu, enclave, tcs)
        isa.eexit(session)
        isa.eenter(cpu, enclave, tcs)  # free again

    def test_session_reads_enclave_memory(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, data=b"hello enclave")
        session = isa.eenter(cpu, enclave, tcs)
        assert session.read(BASE, 13) == b"hello enclave"
        isa.eexit(session)

    def test_closed_session_faults(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        isa.eexit(session)
        with pytest.raises(SgxAccessFault):
            session.read(BASE, 4)
        with pytest.raises(SgxAccessFault):
            session.write(BASE, b"x")

    def test_out_of_range_access_faults(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        with pytest.raises(SgxAccessFault):
            session.read(0x100, 4)
        isa.eexit(session)

    def test_permissions_enforced(self, cpu, vendor):
        enclave = isa.ecreate(cpu, BASE, 8 * PAGE_SIZE)
        isa.eadd(cpu, enclave, BASE, b"ro", SecInfo(PageType.REG, Permissions.R))
        from repro.sgx.structures import Tcs

        tcs = Tcs(BASE + PAGE_SIZE, "main", ossa=BASE + 2 * PAGE_SIZE, nssa=2)
        isa.eadd(cpu, enclave, BASE + PAGE_SIZE, tcs, SecInfo(PageType.TCS, Permissions.NONE))
        for i in range(2):
            isa.eadd(
                cpu, enclave, BASE + (2 + i) * PAGE_SIZE, b"", SecInfo(PageType.REG, Permissions.RW)
            )
        mrenclave = enclave.measurement.value
        vendor = KeyPair(generate_rsa_keypair(DeterministicRng("v2")), "v")
        unsigned = SigStruct(mrenclave, "v", vendor.public.n, b"")
        isa.einit(
            cpu,
            enclave,
            SigStruct(mrenclave, "v", vendor.public.n, vendor.private.sign(unsigned.signed_body())),
        )
        session = isa.eenter(cpu, enclave, BASE + PAGE_SIZE)
        assert session.read(BASE, 2) == b"ro"
        with pytest.raises(SgxAccessFault):
            session.write(BASE, b"xx")

    def test_cssa_not_software_readable(self, cpu, vendor):
        enclave, tcs_vaddr = build_raw_enclave(cpu, vendor)
        tcs = enclave.tcs_at(tcs_vaddr)
        with pytest.raises(SgxAccessFault):
            _ = tcs.cssa
        with pytest.raises(SgxAccessFault):
            _ = tcs.active


class TestAexEresume:
    def test_aex_saves_and_eresume_restores(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        isa.aex(session, {"pc": 7, "entry": "main"})
        resumed, ctx = isa.eresume(cpu, enclave, tcs)
        assert ctx == {"pc": 7, "entry": "main"}
        assert resumed.rax == 0
        isa.eexit(resumed)

    def test_eenter_after_aex_sees_incremented_cssa(self, cpu, vendor):
        # Figure 5: AEX increments CSSA; EENTER (handler) returns it in rax.
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        isa.aex(session, {"level": 0})
        handler = isa.eenter(cpu, enclave, tcs)
        assert handler.rax == 1
        isa.eexit(handler)
        resumed, _ = isa.eresume(cpu, enclave, tcs)
        assert resumed.rax == 0
        isa.eexit(resumed)

    def test_nested_aex_stacks_frames(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, nssa=3)
        session = isa.eenter(cpu, enclave, tcs)
        isa.aex(session, {"level": 0})
        handler = isa.eenter(cpu, enclave, tcs)
        isa.aex(handler, {"level": 1})
        handler2 = isa.eenter(cpu, enclave, tcs)
        assert handler2.rax == 2
        isa.eexit(handler2)
        # Two ERESUMEs walk back down the SSA stack (Figure 5's story).
        resumed1, ctx1 = isa.eresume(cpu, enclave, tcs)
        assert ctx1 == {"level": 1}
        isa.eexit(resumed1)
        resumed0, ctx0 = isa.eresume(cpu, enclave, tcs)
        assert ctx0 == {"level": 0}
        isa.eexit(resumed0)

    def test_nssa_exhaustion_blocks_eenter(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, nssa=1)
        session = isa.eenter(cpu, enclave, tcs)
        isa.aex(session, {})
        with pytest.raises(SgxInstructionFault):
            isa.eenter(cpu, enclave, tcs)  # CSSA == NSSA

    def test_eresume_with_no_frame_rejected(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        with pytest.raises(SgxInstructionFault):
            isa.eresume(cpu, enclave, tcs)

    def test_eexit_preserves_cssa(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        isa.aex(session, {"x": 1})
        handler = isa.eenter(cpu, enclave, tcs)
        isa.eexit(handler)  # EENTER/EEXIT pair: CSSA unchanged
        again = isa.eenter(cpu, enclave, tcs)
        assert again.rax == 1
        isa.eexit(again)

    def test_aex_counted(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        before = cpu.aex_count
        isa.aex(session, {})
        assert cpu.aex_count == before + 1


class TestPaging:
    def test_ewb_eldb_roundtrip(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor, data=b"page data")
        va = isa.alloc_va_page(cpu)
        blob = isa.ewb(cpu, enclave, BASE, va, 0)
        assert not enclave.page_present(BASE)
        isa.eldb(cpu, enclave, blob, va, 0)
        session = isa.eenter(cpu, enclave, tcs)
        assert session.read(BASE, 9) == b"page data"
        isa.eexit(session)

    def test_evicted_page_is_ciphertext(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor, data=b"SECRET-CONTENT")
        va = isa.alloc_va_page(cpu)
        blob = isa.ewb(cpu, enclave, BASE, va, 0)
        assert b"SECRET-CONTENT" not in blob.ciphertext

    def test_cross_cpu_eldb_fails(self, cpu, second_cpu, vendor):
        # Difference-1 (§II-B): the page encryption key never leaves the
        # CPU, so another machine cannot load the evicted image.
        enclave, _ = build_raw_enclave(cpu, vendor)
        enclave_b, _ = build_raw_enclave(second_cpu, vendor)
        va = isa.alloc_va_page(cpu)
        blob = isa.ewb(cpu, enclave, BASE, va, 0)
        va_b = isa.alloc_va_page(second_cpu)
        isa._va_slots(second_cpu, va_b, 1)[1] = blob.version
        with pytest.raises(SgxMacMismatch):
            isa.eldb(second_cpu, enclave_b, blob, va_b, 1)

    def test_version_replay_rejected(self, cpu, vendor):
        # Anti-replay: a slot is cleared on load; replaying the old blob
        # (or a stale version) must fail.
        enclave, _ = build_raw_enclave(cpu, vendor)
        va = isa.alloc_va_page(cpu)
        blob1 = isa.ewb(cpu, enclave, BASE, va, 0)
        isa.eldb(cpu, enclave, blob1, va, 0)
        blob2 = isa.ewb(cpu, enclave, BASE, va, 1)
        with pytest.raises((SgxMacMismatch, SgxInstructionFault)):
            isa.eldb(cpu, enclave, blob1, va, 1)  # stale blob, new slot

    def test_slot_reuse_rejected(self, cpu, vendor):
        enclave, _ = build_raw_enclave(cpu, vendor, n_data_pages=3)
        va = isa.alloc_va_page(cpu)
        isa.ewb(cpu, enclave, BASE, va, 0)
        with pytest.raises(SgxInstructionFault):
            isa.ewb(cpu, enclave, BASE + PAGE_SIZE, va, 0)

    def test_access_to_evicted_page_faults(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        va = isa.alloc_va_page(cpu)
        isa.ewb(cpu, enclave, BASE, va, 0)
        session = isa.eenter(cpu, enclave, tcs)
        with pytest.raises(EnclavePageFault):
            session.read(BASE, 4)
        isa.eexit(session)

    def test_ewb_active_tcs_rejected(self, cpu, vendor):
        enclave, tcs_vaddr = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs_vaddr)
        va = isa.alloc_va_page(cpu)
        with pytest.raises(SgxInstructionFault):
            isa.ewb(cpu, enclave, tcs_vaddr, va, 0)
        isa.eexit(session)

    def test_ewb_inactive_tcs_preserves_cssa(self, cpu, vendor):
        enclave, tcs_vaddr = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs_vaddr)
        isa.aex(session, {"x": 1})  # CSSA -> 1, TCS inactive
        va = isa.alloc_va_page(cpu)
        blob = isa.ewb(cpu, enclave, tcs_vaddr, va, 0)
        isa.eldb(cpu, enclave, blob, va, 0)
        # ERESUME still works: the sealed TCS carried CSSA = 1.
        resumed, ctx = isa.eresume(cpu, enclave, tcs_vaddr)
        assert ctx == {"x": 1}
        isa.eexit(resumed)


class TestTeardown:
    def test_destroy_frees_epc(self, cpu, vendor):
        free_before = cpu.epc.free_count
        enclave, _ = build_raw_enclave(cpu, vendor)
        isa.destroy_enclave(cpu, enclave)
        assert cpu.epc.free_count == free_before

    def test_destroyed_enclave_unusable(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        isa.destroy_enclave(cpu, enclave)
        with pytest.raises(SgxInstructionFault):
            isa.eenter(cpu, enclave, tcs)

    def test_eremove_active_tcs_rejected(self, cpu, vendor):
        enclave, tcs = build_raw_enclave(cpu, vendor)
        session = isa.eenter(cpu, enclave, tcs)
        with pytest.raises(SgxInstructionFault):
            isa.eremove(cpu, enclave, tcs)
        isa.eexit(session)
