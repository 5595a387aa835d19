"""SGX v2 dynamic memory management (EDMM).

§IV-B's limitation — "If having executable, writable and non-readable
permission, one EPC page cannot be migrated because the control thread
cannot read its content ... this problem can be fixed in SGX v2 which
supports dynamically changing page permissions" — is about these
instructions:

* **EAUG**    — the OS adds a pending page to a *running* enclave;
* **EACCEPT** — the enclave accepts a pending page or permission change
  (nothing the OS does takes effect until the enclave agrees);
* **EMODPR**  — the OS restricts a page's permissions (needs EACCEPT);
* **EMODPE**  — the *enclave* extends its own page's permissions.

With EMODPE, the control thread can temporarily make a W+X page readable,
dump it, and drop the permission again — which is exactly how the v2
migration test closes the paper's v1 gap
(`tests/sgx/test_sgx2.py::TestV2ClosesTheMigrationGap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SgxAccessFault, SgxInstructionFault
from repro.sgx.cpu import EnclaveSession, SgxCpu
from repro.sgx.enclave import EnclaveHw
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions


@dataclass
class _PendingState:
    """Per-enclave EDMM bookkeeping (hardware-held)."""

    #: vaddr -> "aug" (new page awaiting EACCEPT)
    pending_pages: dict[int, str] = field(default_factory=dict)
    #: vaddr -> restricted permissions awaiting EACCEPT
    pending_restrict: dict[int, Permissions] = field(default_factory=dict)


def _edmm(enclave: EnclaveHw) -> _PendingState:
    state = getattr(enclave, "_edmm_state", None)
    if state is None:
        state = _PendingState()
        enclave._edmm_state = state
    return state


def eaug(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> None:
    """OS side: add a pending zero page to an initialized enclave.

    In v1, EADD after EINIT faults; EAUG is the v2 escape hatch.  The
    page is unusable until the enclave EACCEPTs it — the enclave's
    defense against the OS growing it with unexpected memory.
    """
    cpu.charge(cpu.costs.eadd_page_ns)
    if not enclave.secs.initialized:
        raise SgxInstructionFault("EAUG only applies to initialized enclaves")
    if not enclave.contains(vaddr):
        raise SgxInstructionFault(f"0x{vaddr:x} is outside the enclave range")
    index = cpu.epc.alloc(enclave.eid, vaddr, PageType.REG, Permissions.NONE)
    enclave._map_page(vaddr, index)
    _edmm(enclave).pending_pages[vaddr] = "aug"


def eaccept(session: EnclaveSession, vaddr: int) -> None:
    """Enclave side: accept a pending page or permission restriction."""
    cpu = session.cpu
    cpu.charge(cpu.costs.eextend_page_ns)
    session._require_open()
    enclave = session.enclave
    state = _edmm(enclave)
    if vaddr in state.pending_pages:
        del state.pending_pages[vaddr]
        index = enclave._page_index(vaddr)
        cpu.epc.set_permissions(index, Permissions.RW)
        return
    if vaddr in state.pending_restrict:
        index = enclave._page_index(vaddr)
        cpu.epc.set_permissions(index, state.pending_restrict.pop(vaddr))
        return
    raise SgxInstructionFault(f"nothing pending at 0x{vaddr:x}")


def emodpr(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int, permissions: Permissions) -> None:
    """OS side: restrict a page's permissions (effective after EACCEPT)."""
    cpu.charge(cpu.costs.eextend_page_ns)
    index = enclave._page_index(vaddr)
    current = cpu.epc.permissions(index)
    if permissions | current != current:
        raise SgxInstructionFault("EMODPR can only restrict, never extend")
    _edmm(enclave).pending_restrict[vaddr] = permissions


def emodpe(session: EnclaveSession, vaddr: int, permissions: Permissions) -> None:
    """Enclave side: extend one of its own pages' permissions.

    Takes effect immediately — only the enclave itself can do this, so
    there is nothing to double-confirm.  This is the instruction that
    lets the control thread read a W+X page during checkpointing.
    """
    cpu = session.cpu
    cpu.charge(cpu.costs.eextend_page_ns)
    session._require_open()
    if session.enclave.page_type(vaddr) is not PageType.REG:
        raise SgxInstructionFault("EMODPE only applies to REG pages")
    index = session.enclave._page_index(vaddr)
    cpu.epc.set_permissions(index, cpu.epc.permissions(index) | permissions)


def dump_unreadable_page_v2(session: EnclaveSession, vaddr: int) -> bytes:
    """The §IV-B fix, as the v2 control thread would perform it.

    Temporarily extend a non-readable page with R, copy it, restore the
    original permissions via the OS-restrict + enclave-accept handshake.
    """
    enclave = session.enclave
    original = enclave.page_permissions(vaddr)
    if Permissions.R in original:
        return session.read(vaddr, PAGE_SIZE)
    emodpe(session, vaddr, Permissions.R)
    data = session.read(vaddr, PAGE_SIZE)
    emodpr(session.cpu, enclave, vaddr, original)
    eaccept(session, vaddr)
    if enclave.page_permissions(vaddr) != original:  # pragma: no cover - guard
        raise SgxAccessFault("failed to restore original permissions")
    return data
