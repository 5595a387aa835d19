"""The SGX v1 instruction set.

Each function models one leaf instruction with the state checks the
migration protocol depends on, charging its modelled latency to the CPU's
clock.  The instruction semantics follow §II-A of the paper:

* build:   ECREATE, EADD, EEXTEND, EINIT
* enter:   EENTER (returns CSSA in rax), EEXIT, AEX, ERESUME
* paging:  EWB, ELDB/ELDU (MEE-sealed, version-checked), EREMOVE
* crypto:  EGETKEY, EREPORT (local attestation)
"""

from __future__ import annotations

from typing import Any

from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.rsa import RsaPublicKey
from repro.errors import SgxInstructionFault
from repro.sgx.cpu import EnclaveSession, SgxCpu
from repro.sgx.enclave import EnclaveHw
from repro.sgx.structures import (
    PAGE_SIZE,
    VA_SLOTS_PER_PAGE,
    EvictedPage,
    PageType,
    Permissions,
    Report,
    SecInfo,
    SigStruct,
    SsaFrame,
    TargetInfo,
    Tcs,
)

REPORT_DATA_LEN = 64


# ---------------------------------------------------------------------------
# Enclave build
# ---------------------------------------------------------------------------

def ecreate(cpu: SgxCpu, base: int, size: int) -> EnclaveHw:
    """Create an enclave: allocate its SECS page and open the measurement."""
    eid = cpu.new_eid()
    cpu.meter("ecreate", cpu.costs.ecreate_ns, eid=eid)
    secs_page = cpu.epc.alloc(eid, vaddr=0, page_type=PageType.SECS, permissions=Permissions.NONE)
    enclave = EnclaveHw(eid, base, size, cpu.epc, secs_page.index)
    secs_page.hw_object = enclave.secs
    cpu.enclaves[eid] = enclave
    cpu.trace.emit("sgx", "ecreate", cpu=cpu.name, eid=eid, base=base, size=size)
    return enclave


def eadd(
    cpu: SgxCpu,
    enclave: EnclaveHw,
    vaddr: int,
    content: bytes | Tcs,
    sec_info: SecInfo,
) -> None:
    """Add one page to a not-yet-initialized enclave."""
    cpu.charge(cpu.costs.eadd_page_ns)
    if enclave.secs.initialized:
        raise SgxInstructionFault("EADD after EINIT is not allowed in SGX v1")
    if not enclave.contains(vaddr):
        raise SgxInstructionFault(f"0x{vaddr:x} is outside the enclave range")
    page = cpu.epc.alloc(enclave.eid, vaddr, sec_info.page_type, sec_info.permissions)
    if sec_info.page_type is PageType.TCS:
        if not isinstance(content, Tcs):
            raise SgxInstructionFault("TCS page content must be a TCS structure")
        page.hw_object = content
        enclave._map_page(vaddr, page.index, tcs=content)
    elif sec_info.page_type is PageType.REG:
        if not isinstance(content, (bytes, bytearray)):
            raise SgxInstructionFault("REG page content must be bytes")
        if len(content) > PAGE_SIZE:
            raise SgxInstructionFault("page content exceeds 4KB")
        if content:  # empty content leaves the page lazily zero
            page.store(content)
        enclave._map_page(vaddr, page.index)
    else:
        raise SgxInstructionFault(f"EADD cannot add {sec_info.page_type} pages")
    enclave.measurement.eadd(vaddr, sec_info)


def _page_measure_bytes(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> bytes | bytearray:
    """The page's content as EEXTEND measures it, read in place."""
    index = enclave._page_index(vaddr)
    page = cpu.epc.page(index)
    if cpu.epc.entry(index).page_type is PageType.TCS:
        return page.hw_object.to_bytes().ljust(PAGE_SIZE, b"\x00")
    return page.peek()


def eextend(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """Measure one previously added page into MRENCLAVE (no copy of it)."""
    cpu.charge(cpu.costs.eextend_page_ns)
    if enclave.secs.initialized:
        raise SgxInstructionFault("EEXTEND after EINIT is not allowed")
    enclave.measurement.eextend(vaddr, _page_measure_bytes(cpu, enclave, vaddr))


def einit(cpu: SgxCpu, enclave: EnclaveHw, sigstruct: SigStruct) -> None:
    """Finalize the measurement and verify the image signature."""
    cpu.charge(cpu.costs.einit_ns)
    if enclave.secs.initialized:
        raise SgxInstructionFault("enclave already initialized")
    mrenclave = enclave.measurement.finalize()
    if not constant_time_equal(mrenclave, sigstruct.mrenclave):
        raise SgxInstructionFault("SIGSTRUCT measurement does not match the built enclave")
    signer = RsaPublicKey(sigstruct.signer_modulus, 65537)
    signer.verify(sigstruct.signed_body(), sigstruct.signature)
    enclave.secs.mrenclave = mrenclave
    enclave.secs.mrsigner = sha256(sigstruct.signer_modulus.to_bytes(128, "big"))
    enclave.secs.initialized = True
    cpu.trace.emit("sgx", "einit", cpu=cpu.name, eid=enclave.eid, mrenclave=mrenclave.hex()[:16])


# ---------------------------------------------------------------------------
# Entry / exit / exception flow
# ---------------------------------------------------------------------------

def eenter(cpu: SgxCpu, enclave: EnclaveHw, tcs_vaddr: int, aep: object = None) -> EnclaveSession:
    """Enter the enclave through a TCS.

    The session's ``rax`` carries the current CSSA — "its current value
    will be stored in register rax as the return value of EENTER
    instruction" (§IV-C) — which is the only architectural window the
    in-enclave tracking has onto the hardware counter.
    """
    cpu.charge(cpu.costs.eenter_ns)
    if not enclave.secs.initialized:
        raise SgxInstructionFault("EENTER before EINIT")
    if enclave.frozen:
        raise SgxInstructionFault("enclave is frozen by EMIGRATE")
    tcs = enclave.tcs_at(tcs_vaddr)
    if tcs._active:
        raise SgxInstructionFault(f"TCS 0x{tcs_vaddr:x} is already in use")
    if tcs._cssa >= tcs.nssa:
        raise SgxInstructionFault("out of SSA frames (CSSA == NSSA)")
    tcs._active = True
    return EnclaveSession(cpu, enclave, tcs, aep, rax=tcs._cssa, entered_via="eenter")


def eexit(session: EnclaveSession) -> None:
    """Synchronous exit: leaves CSSA unchanged (EENTER/EEXIT pair, Fig. 5)."""
    session._require_open()
    session.cpu.charge(session.cpu.costs.eexit_ns)
    session.tcs._active = False
    session._close()


def aex(session: EnclaveSession, context: dict[str, Any]) -> None:
    """Asynchronous Enclave Exit.

    Saves the interrupted context into SSA[CSSA], increments CSSA, scrubs
    the (modelled) processor state and leaves enclave mode.  Control
    returns to the AEP in the untrusted SGX library.
    """
    session._require_open()
    cpu = session.cpu
    cpu.charge(cpu.costs.aex_ns)
    tcs = session.tcs
    if tcs._cssa >= tcs.nssa:
        raise SgxInstructionFault("AEX with no free SSA frame")
    frame_bytes = SsaFrame(dict(context)).to_bytes()
    if len(frame_bytes) > PAGE_SIZE:
        raise SgxInstructionFault("execution context exceeds one SSA frame")
    ssa_vaddr = tcs.ossa + tcs._cssa * PAGE_SIZE
    session.enclave.hw_write(ssa_vaddr, frame_bytes.ljust(PAGE_SIZE, b"\x00"))
    tcs._cssa += 1
    tcs._active = False
    cpu.aex_count += 1
    cpu.trace.count("aex")
    session._close()


def eresume(cpu: SgxCpu, enclave: EnclaveHw, tcs_vaddr: int, aep: object = None):
    """Resume an interrupted thread from its saved SSA frame.

    Decrements CSSA and returns ``(session, context)`` — the pair the SGX
    library uses to continue execution at the interrupted point.
    """
    cpu.charge(cpu.costs.eresume_ns)
    if not enclave.secs.initialized:
        raise SgxInstructionFault("ERESUME before EINIT")
    if enclave.frozen:
        raise SgxInstructionFault("enclave is frozen by EMIGRATE")
    tcs = enclave.tcs_at(tcs_vaddr)
    if tcs._active:
        raise SgxInstructionFault(f"TCS 0x{tcs_vaddr:x} is already in use")
    if tcs._cssa == 0:
        raise SgxInstructionFault("ERESUME with CSSA == 0 (nothing to resume)")
    tcs._cssa -= 1
    ssa_vaddr = tcs.ossa + tcs._cssa * PAGE_SIZE
    frame_bytes = enclave.hw_read(ssa_vaddr, PAGE_SIZE).rstrip(b"\x00")
    context = SsaFrame.from_bytes(frame_bytes).context
    tcs._active = True
    session = EnclaveSession(cpu, enclave, tcs, aep, rax=tcs._cssa, entered_via="eresume")
    return session, context


# ---------------------------------------------------------------------------
# Paging (EWB / ELDB) and teardown
# ---------------------------------------------------------------------------

def alloc_va_page(cpu: SgxCpu) -> int:
    """Allocate a Version Array page; returns its EPC index."""
    page = cpu.epc.alloc(owner_eid=0, vaddr=0, page_type=PageType.VA, permissions=Permissions.NONE)
    page.hw_object = [0] * VA_SLOTS_PER_PAGE
    return page.index


def _va_slots(cpu: SgxCpu, va_index: int) -> list[int]:
    entry = cpu.epc.entry(va_index)
    if not entry.valid or entry.page_type is not PageType.VA:
        raise SgxInstructionFault(f"EPC page {va_index} is not a Version Array page")
    return cpu.epc.page(va_index).hw_object


def ewb(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int, va_index: int, slot: int) -> EvictedPage:
    """Evict one page: seal it to normal memory and record its version."""
    cpu.meter("ewb", cpu.costs.ewb_page_ns, eid=enclave.eid)
    slots = _va_slots(cpu, va_index)
    if slots[slot] != 0:
        raise SgxInstructionFault(f"VA slot {slot} is already in use")
    index = enclave._page_index(vaddr)
    entry = cpu.epc.entry(index)
    if entry.page_type is PageType.SECS:
        raise SgxInstructionFault("cannot EWB the SECS while the enclave lives")
    if entry.page_type is PageType.TCS and cpu.epc.page(index).hw_object._active:
        raise SgxInstructionFault("cannot EWB an active TCS")
    if entry.page_type is PageType.TCS:
        # Unlike the measured build-time template, the sealed image
        # carries the full hardware state — including CSSA.
        from repro.serde import pack

        tcs = cpu.epc.page(index).hw_object
        plaintext = pack(
            {
                "vaddr": tcs.vaddr,
                "oentry": tcs.oentry,
                "ossa": tcs.ossa,
                "nssa": tcs.nssa,
                "cssa": tcs._cssa,
            }
        ).ljust(PAGE_SIZE, b"\x00")
    else:
        plaintext = bytes(cpu.epc.page(index).peek())
    version = cpu.next_version()
    sealed = cpu.mee.seal_page(
        plaintext, enclave.eid, vaddr, entry.page_type, entry.permissions, version
    )
    slots[slot] = version
    enclave._evict_page(vaddr)
    cpu.epc.free(index)
    cpu.trace.count("ewb")
    return sealed


def eldb(cpu: SgxCpu, enclave: EnclaveHw, evicted: EvictedPage, va_index: int, slot: int) -> None:
    """Load an evicted page back into the EPC after MAC/version checks (ELDU
    differs only in blocked-state bookkeeping we do not model)."""
    cpu.meter("eldu", cpu.costs.eldb_page_ns, eid=enclave.eid)
    slots = _va_slots(cpu, va_index)
    expected_version = slots[slot]
    if expected_version == 0:
        raise SgxInstructionFault(f"VA slot {slot} holds no version")
    if evicted.eid != enclave.eid:
        raise SgxInstructionFault("evicted page belongs to a different enclave")
    plaintext = cpu.mee.unseal_page(evicted, expected_version)  # may raise SgxMacMismatch
    page = cpu.epc.alloc(enclave.eid, evicted.vaddr, evicted.page_type, evicted.permissions)
    if evicted.page_type is PageType.TCS:
        # Rebuild the TCS object from its sealed image, preserving CSSA.
        from repro.serde import unpack

        fields = unpack(plaintext.rstrip(b"\x00"))
        tcs = Tcs(fields["vaddr"], fields["oentry"], fields["ossa"], fields["nssa"])
        tcs._cssa = fields.get("cssa", 0)
        page.hw_object = tcs
        enclave._tcs[evicted.vaddr] = tcs
    else:
        page.store(plaintext)
    slots[slot] = 0
    enclave._reload_page(evicted.vaddr, page.index)
    cpu.trace.count("eldb")


#: ELDU differs from ELDB only in the blocked-state bookkeeping we do not
#: model; expose it as an alias so driver code reads like the manual.
eldu = eldb


def eremove(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """Remove one enclave page, scrubbing its contents."""
    cpu.charge(cpu.costs.eremove_page_ns)
    index = enclave._page_index(vaddr)
    entry = cpu.epc.entry(index)
    if entry.page_type is PageType.TCS and cpu.epc.page(index).hw_object._active:
        raise SgxInstructionFault("cannot EREMOVE an active TCS")
    enclave._drop_page(vaddr)
    cpu.epc.free(index)


def destroy_enclave(cpu: SgxCpu, enclave: EnclaveHw) -> None:
    """EREMOVE every page and finally the SECS (driver teardown path)."""
    for vaddr in list(enclave.mapped_vaddrs()):
        if enclave.page_present(vaddr):
            eremove(cpu, enclave, vaddr)
        else:
            enclave._drop_page(vaddr)  # evicted page: nothing in EPC to free
    cpu.epc.free(enclave._secs_page_index)
    enclave.dead = True
    del cpu.enclaves[enclave.eid]
    cpu.trace.emit("sgx", "destroy", cpu=cpu.name, eid=enclave.eid)


# ---------------------------------------------------------------------------
# Keys and local attestation
# ---------------------------------------------------------------------------

def egetkey(session: EnclaveSession, key_type: str) -> bytes:
    """Derive a key available only to this enclave on this CPU."""
    session._require_open()
    cpu = session.cpu
    cpu.charge(cpu.costs.egetkey_ns)
    secs = session.enclave.secs
    if key_type == "report":
        return cpu._report_key_for(secs.mrenclave)
    if key_type == "seal_mrenclave":
        return cpu._seal_key_for(b"enclave" + secs.mrenclave)
    if key_type == "seal_mrsigner":
        return cpu._seal_key_for(b"signer" + secs.mrsigner)
    raise SgxInstructionFault(f"unknown key type {key_type!r}")


def ereport(session: EnclaveSession, target: TargetInfo, report_data: bytes) -> Report:
    """Produce local-attestation evidence for ``target`` on the same CPU."""
    session._require_open()
    cpu = session.cpu
    cpu.charge(cpu.costs.ereport_ns)
    if len(report_data) > REPORT_DATA_LEN:
        raise SgxInstructionFault("report data exceeds 64 bytes")
    secs = session.enclave.secs
    report = Report(
        mrenclave=secs.mrenclave,
        mrsigner=secs.mrsigner,
        attributes=secs.attributes,
        cpu_id=cpu.cpu_id,
        report_data=report_data.ljust(REPORT_DATA_LEN, b"\x00"),
        mac=b"",
    )
    mac = hmac_sha256(cpu._report_key_for(target.mrenclave), report.body())
    return Report(
        mrenclave=report.mrenclave,
        mrsigner=report.mrsigner,
        attributes=report.attributes,
        cpu_id=report.cpu_id,
        report_data=report.report_data,
        mac=mac,
    )


def verify_report(session: EnclaveSession, report: Report) -> bool:
    """Verify a report addressed to the calling enclave (local attestation).

    The verifier derives its own report key with EGETKEY and recomputes
    the MAC; this only succeeds on the CPU that produced the report.
    """
    key = egetkey(session, "report")
    return constant_time_equal(hmac_sha256(key, report.body()), report.mac)
