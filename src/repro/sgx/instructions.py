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

from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.rsa import RsaPublicKey
from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx.cpu import EnclaveSession, SgxCpu
from repro.sgx.enclave import EnclaveHw
from repro.sgx.structures import (
    PAGE_SIZE,
    TYPE_CODE,
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
    index = cpu.epc.alloc(eid, vaddr=0, page_type=PageType.SECS, permissions=Permissions.NONE)
    try:
        enclave = EnclaveHw(eid, base, size, cpu.epc, index)
    except SgxInstructionFault:  # a refused range leaves no SECS page behind
        cpu.epc.free(index)
        raise
    cpu.epc.hw[index] = enclave.secs
    cpu.enclaves[eid] = enclave
    cpu.trace.emit("sgx", "ecreate", cpu=cpu.name, eid=eid, base=base, size=size)
    return enclave


# A page run checks its pages as arrays to find the first page that would
# fault, applies the pages before it, charges each page up to and
# including that one as its own instruction, and then faults there
# through the same one-page check a single instruction makes.  The
# single-page instructions are one-page runs.

def _eadd_check(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int, content, sec_info: SecInfo) -> None:
    """Raise the fault one EADD of this page meets, in hardware's order."""
    enclave._check_alive()
    if enclave.secs.initialized:
        raise SgxInstructionFault("EADD after EINIT is not allowed in SGX v1")
    if not enclave.contains(vaddr):
        raise SgxInstructionFault(f"0x{vaddr:x} is outside the enclave range")
    if vaddr % PAGE_SIZE:
        raise SgxInstructionFault(f"unaligned page address 0x{vaddr:x}")
    if cpu.epc.free_count == 0:
        raise SgxEpcExhausted("no free EPC page")
    if sec_info.page_type is PageType.TCS:
        if not isinstance(content, Tcs):
            raise SgxInstructionFault("TCS page content must be a TCS structure")
    elif sec_info.page_type is PageType.REG:
        if not isinstance(content, (bytes, bytearray)):
            raise SgxInstructionFault("REG page content must be bytes")
        if len(content) > PAGE_SIZE:
            raise SgxInstructionFault("page content exceeds 4KB")
    else:
        raise SgxInstructionFault(f"EADD cannot add {sec_info.page_type} pages")
    if enclave.page_mapped(vaddr):
        raise SgxInstructionFault(f"page 0x{vaddr:x} already mapped")
    raise AssertionError(f"EADD run stopped at 0x{vaddr:x}, which passes every check")


_REG, _TCS = TYPE_CODE[PageType.REG], TYPE_CODE[PageType.TCS]
#: What a page's content can be: bytes that fit a page, a TCS, anything else.
_FITS, _A_TCS, _OTHER = 0, 1, 2
_epcm_codes = attrgetter("epcm_codes")


def _content_kind(content) -> int:
    if isinstance(content, (bytes, bytearray)):
        return _FITS if len(content) <= PAGE_SIZE else _OTHER
    return _A_TCS if isinstance(content, Tcs) else _OTHER


def _eadd_run_length(
    cpu: SgxCpu, enclave: EnclaveHw, vaddrs: np.ndarray, types: np.ndarray, contents
) -> int:
    """How many leading pages of an EADD run pass every check, given
    ``vaddrs`` that all lie inside the enclave."""
    if enclave.dead or enclave.secs.initialized:
        return 0
    kinds = np.fromiter(map(_content_kind, contents), np.uint8, len(contents))
    expected = np.where(types == _TCS, _A_TCS, np.where(types == _REG, _FITS, 255))
    bad = (vaddrs % PAGE_SIZE != 0) | (kinds != expected)
    n = min(len(vaddrs), cpu.epc.free_count)
    if bad[:n].any():
        n = int(bad.argmax())
    listed = vaddrs[:n].tolist()
    table = enclave._page_table
    if not table.keys().isdisjoint(listed) or len(set(listed)) != n:
        seen = set(table)
        for i, vaddr in enumerate(listed):
            if vaddr in seen:
                return i
            seen.add(vaddr)
    return n


def eadd_run(
    cpu: SgxCpu,
    enclave: EnclaveHw,
    vaddrs: Sequence[int],
    sec_infos: Sequence[SecInfo],
    contents: Sequence[bytes | Tcs],
    measure: Sequence[bool],
) -> None:
    """EADD a run of pages, in order, and EEXTEND each page where
    ``measure[i]``: the driver's build loop as one instruction run.

    A page faults as a one-page :func:`eadd` would; the pages before it
    stay added and measured, and each page up to and including the
    faulting one is charged as its own EADD (and EEXTEND).  Empty REG
    content leaves a page lazily zero.
    """
    epc = cpu.epc
    n = len(vaddrs)
    # The guest names the vaddrs: only the leading ones inside the
    # enclave become an array, and the run stops at the first outside.
    base, end = enclave.secs.base, enclave.secs.base + enclave.secs.size
    inside = n
    if n and not (base <= min(vaddrs) and max(vaddrs) < end):
        inside = next(i for i, vaddr in enumerate(vaddrs) if not base <= vaddr < end)
    addresses = np.array(vaddrs[:inside], dtype=np.uint64)
    measured = np.array(measure, dtype=bool)
    codes = np.fromiter(
        chain.from_iterable(map(_epcm_codes, sec_infos[:inside])), np.uint8, 2 * inside
    ).reshape(-1, 2)
    k = _eadd_run_length(cpu, enclave, addresses, codes[:, 0], contents[:inside])
    cpu.charge(
        (k + (k < n)) * cpu.costs.eadd_page_ns
        + int(measured[:k].sum()) * cpu.costs.eextend_page_ns
    )
    if k:
        indices = epc.alloc_run(enclave.eid, addresses[:k], codes[:k, 0], codes[:k, 1])
        for i in np.flatnonzero(codes[:k, 0] == _TCS).tolist():
            epc.hw[indices[i]] = enclave._tcs[vaddrs[i]] = contents[i]
        for index, content in zip(indices, contents[:k]):
            if not isinstance(content, Tcs) and content:
                epc.write(index, 0, content)
        enclave._page_table.update(zip(vaddrs[:k], indices))
        encoded = b"".join([sec_info.to_bytes() for sec_info in sec_infos[:k]])
        enclave.measurement.add_run(
            addresses[:k],
            np.frombuffer(encoded, dtype=np.uint8).reshape(k, 64),
            measured[:k],
            contents[:k],
        )
    if k < n:
        _eadd_check(cpu, enclave, vaddrs[k], contents[k], sec_infos[k])


def eadd(
    cpu: SgxCpu,
    enclave: EnclaveHw,
    vaddr: int,
    content: bytes | Tcs,
    sec_info: SecInfo,
) -> None:
    """Add one page to a not-yet-initialized enclave: a one-page run."""
    eadd_run(cpu, enclave, [vaddr], [sec_info], [content], [False])


def eextend(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """Measure one previously added page into MRENCLAVE."""
    cpu.charge(cpu.costs.eextend_page_ns)
    if enclave.secs.initialized:
        raise SgxInstructionFault("EEXTEND after EINIT is not allowed")
    index = enclave._page_index(vaddr)
    if cpu.epc.types[index] == _TCS:
        page = cpu.epc.hw[index].to_bytes().ljust(PAGE_SIZE, b"\x00")
    else:
        page = cpu.epc.memory[index]
    enclave.measurement.eextend(vaddr, page)


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
    return cpu.epc.alloc(0, 0, PageType.VA, Permissions.NONE, hw_object=[0] * VA_SLOTS_PER_PAGE)


def _va_slots(cpu: SgxCpu, va_index: int, slot: int) -> list[int]:
    """The slots of the Version Array page the guest names, once both
    the page and the slot index are checked (the guest is untrusted)."""
    epc = cpu.epc
    if not (
        0 <= va_index < epc.n_pages
        and epc.valid[va_index]
        and epc.types[va_index] == TYPE_CODE[PageType.VA]
    ):
        raise SgxInstructionFault(f"EPC page {va_index} is not a Version Array page")
    if not 0 <= slot < VA_SLOTS_PER_PAGE:
        raise SgxInstructionFault(f"VA slot {slot} is outside [0, {VA_SLOTS_PER_PAGE})")
    return epc.hw[va_index]


def ewb(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int, va_index: int, slot: int) -> EvictedPage:
    """Evict one page: seal it to normal memory and record its version."""
    cpu.meter("ewb", cpu.costs.ewb_page_ns, eid=enclave.eid)
    slots = _va_slots(cpu, va_index, slot)
    if slots[slot] != 0:
        raise SgxInstructionFault(f"VA slot {slot} is already in use")
    index = enclave._page_index(vaddr)
    epc = cpu.epc
    page_type = epc.page_type(index)
    if page_type is PageType.SECS:
        raise SgxInstructionFault("cannot EWB the SECS while the enclave lives")
    if page_type is PageType.TCS and epc.hw[index]._active:
        raise SgxInstructionFault("cannot EWB an active TCS")
    if page_type is PageType.TCS:
        # Unlike the measured build-time template, the sealed image
        # carries the full hardware state — including CSSA.
        from repro.serde import pack

        tcs = epc.hw[index]
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
        plaintext = epc.read(index, 0, PAGE_SIZE)
    version = cpu.next_version()
    sealed = cpu.mee.seal_page(
        plaintext, enclave.eid, vaddr, page_type, epc.permissions(index), version
    )
    slots[slot] = version
    enclave._evict_page(vaddr)
    epc.free(index)
    cpu.trace.count("ewb")
    return sealed


def eldb(cpu: SgxCpu, enclave: EnclaveHw, evicted: EvictedPage, va_index: int, slot: int) -> None:
    """Load an evicted page back into the EPC after MAC/version checks (ELDU
    differs only in blocked-state bookkeeping we do not model)."""
    cpu.meter("eldu", cpu.costs.eldb_page_ns, eid=enclave.eid)
    slots = _va_slots(cpu, va_index, slot)
    expected_version = slots[slot]
    if expected_version == 0:
        raise SgxInstructionFault(f"VA slot {slot} holds no version")
    if evicted.eid != enclave.eid:
        raise SgxInstructionFault("evicted page belongs to a different enclave")
    plaintext = cpu.mee.unseal_page(evicted, expected_version)  # may raise SgxMacMismatch
    index = cpu.epc.alloc(enclave.eid, evicted.vaddr, evicted.page_type, evicted.permissions)
    if evicted.page_type is PageType.TCS:
        # Rebuild the TCS object from its sealed image, preserving CSSA.
        from repro.serde import unpack

        fields = unpack(plaintext.rstrip(b"\x00"))
        tcs = Tcs(fields["vaddr"], fields["oentry"], fields["ossa"], fields["nssa"])
        tcs._cssa = fields.get("cssa", 0)
        cpu.epc.hw[index] = enclave._tcs[evicted.vaddr] = tcs
    else:
        cpu.epc.write(index, 0, plaintext)
    slots[slot] = 0
    enclave._reload_page(evicted.vaddr, index)
    cpu.trace.count("eldb")


#: ELDU differs from ELDB only in the blocked-state bookkeeping we do not
#: model; expose it as an alias so driver code reads like the manual.
eldu = eldb


def _eremove_check(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """Raise the fault one EREMOVE of this page meets, in hardware's order."""
    index = enclave._page_index(vaddr)
    if cpu.epc.page_type(index) is PageType.TCS and cpu.epc.hw[index]._active:
        raise SgxInstructionFault("cannot EREMOVE an active TCS")
    raise AssertionError(f"EREMOVE run stopped at 0x{vaddr:x}, which passes every check")


def eremove_run(cpu: SgxCpu, enclave: EnclaveHw, vaddrs: Sequence[int]) -> None:
    """EREMOVE a run of pages in order, scrubbing their contents.

    A page faults as a one-page :func:`eremove` would, after the pages
    before it are removed; each page up to and including that one is
    charged as its own EREMOVE.
    """
    epc = cpu.epc
    indices = enclave.page_run(vaddrs)
    if len(set(vaddrs[: len(indices)])) != len(indices):
        seen: set[int] = set()
        for i, vaddr in enumerate(vaddrs[: len(indices)]):
            if vaddr in seen:
                del indices[i:]
                break
            seen.add(vaddr)
    if indices:
        tcs = np.flatnonzero(epc._types[indices] == TYPE_CODE[PageType.TCS])
        active = [i for i in tcs.tolist() if epc.hw[indices[i]]._active]
        if active:
            del indices[active[0] :]
    k = len(indices)
    cpu.charge((k + (k < len(vaddrs))) * cpu.costs.eremove_page_ns)
    table, tcs_table = enclave._page_table, enclave._tcs
    for vaddr in vaddrs[:k]:
        del table[vaddr]
        tcs_table.pop(vaddr, None)
    epc.free_run(indices)
    if k < len(vaddrs):
        _eremove_check(cpu, enclave, vaddrs[k])


def eremove(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """Remove one enclave page, scrubbing its contents: a one-page run."""
    eremove_run(cpu, enclave, [vaddr])


def destroy_enclave(cpu: SgxCpu, enclave: EnclaveHw) -> None:
    """EREMOVE every present page and finally the SECS (driver teardown
    path); evicted pages have nothing in the EPC to free."""
    vaddrs = enclave.mapped_vaddrs()
    eremove_run(cpu, enclave, [v for v in vaddrs if enclave.page_present(v)])
    for vaddr in vaddrs:
        if enclave.page_mapped(vaddr):
            enclave._drop_page(vaddr)
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
