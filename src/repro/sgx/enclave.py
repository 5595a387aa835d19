"""Hardware-side enclave state.

One :class:`EnclaveHw` corresponds to one SECS: the linear address range,
the page table from enclave virtual addresses to EPC slots, the TCS set
and the measurement log.  All byte access goes through ``hw_read`` /
``hw_write``, which only :mod:`repro.sgx.instructions` and
:class:`repro.sgx.cpu.EnclaveSession` (the enclave-mode capability) are
allowed to call — outside software never sees these objects' contents.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EnclavePageFault, SgxAccessFault, SgxInstructionFault
from repro.sgx.epc import Epc
from repro.sgx.measurement import MeasurementLog
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, Secs, Tcs


class EnclaveHw:
    """An enclave as the processor sees it."""

    def __init__(self, eid: int, base: int, size: int, epc: Epc, secs_page_index: int) -> None:
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise SgxInstructionFault("enclave range must be page aligned")
        if base < 0 or size < 0 or base + size > 1 << 64:
            raise SgxInstructionFault("enclave range must lie in the 64-bit address space")
        self.eid = eid
        self.secs = Secs(eid=eid, base=base, size=size)
        self.measurement = MeasurementLog()
        self.measurement.ecreate(base, size)
        self._epc = epc
        self._secs_page_index = secs_page_index
        # vaddr -> EPC page index, or None while the page is evicted.
        self._page_table: dict[int, int | None] = {}
        self._tcs: dict[int, Tcs] = {}
        self.dead = False  # set by EREMOVE of the SECS (enclave destroyed)
        # Set by the proposed EMIGRATE instruction (§VII-B): while frozen,
        # EENTER/ERESUME fault so the enclave state cannot change mid-copy.
        self.frozen = False
        # Enclave-private runtime state; see EnclaveSession.private.
        self._private: dict[str, object] = {}

    # ----------------------------------------------------------------- layout
    def contains(self, vaddr: int) -> bool:
        return self.secs.base <= vaddr < self.secs.base + self.secs.size

    def mapped_vaddrs(self) -> list[int]:
        """All enclave page addresses, present or evicted, sorted."""
        return sorted(self._page_table)

    def tcs_at(self, vaddr: int) -> Tcs:
        tcs = self._tcs.get(vaddr)
        if tcs is None:
            raise SgxInstructionFault(f"no TCS at 0x{vaddr:x}")
        return tcs

    @property
    def tcs_list(self) -> list[Tcs]:
        return [self._tcs[v] for v in sorted(self._tcs)]

    def page_mapped(self, vaddr: int) -> bool:
        """Whether ``vaddr`` is an enclave page, present or evicted."""
        return vaddr in self._page_table

    def page_present(self, vaddr: int) -> bool:
        return self._page_table.get(vaddr) is not None

    def page_permissions(self, vaddr: int) -> Permissions:
        return self._epc.permissions(self._page_index(vaddr))

    def page_type(self, vaddr: int) -> PageType:
        return self._epc.page_type(self._page_index(vaddr))

    def page_run(self, vaddrs: Sequence[int], needed: int = 0) -> list[int]:
        """EPC indices of the leading pages of ``vaddrs`` that one-page
        accesses needing permission bits ``needed`` would reach, stopping
        before the first that would fault (hardware / enclave-mode only).

        Every page in the table is inside the range and aligned, so a run
        checks liveness once, then table membership and the EPCM
        permissions column as arrays; the page that stops it faults
        through :meth:`_page_index` like a one-page access.
        """
        if self.dead:
            return []
        indices = list(map(self._page_table.get, vaddrs))
        if None in indices:
            del indices[indices.index(None) :]
        if indices and needed:
            lacking = (self._epc._perms[indices] & needed) != needed
            if lacking.any():
                del indices[int(lacking.argmax()) :]
        return indices

    # ------------------------------------------------------- hardware internal
    def _check_alive(self) -> None:
        if self.dead:
            raise SgxInstructionFault(f"enclave {self.eid} has been destroyed")

    def _page_index(self, vaddr: int) -> int:
        self._check_alive()
        if vaddr % PAGE_SIZE:
            raise SgxInstructionFault(f"unaligned page address 0x{vaddr:x}")
        if vaddr not in self._page_table:
            raise SgxAccessFault(f"0x{vaddr:x} is not an enclave page of enclave {self.eid}")
        index = self._page_table[vaddr]
        if index is None:
            raise EnclavePageFault(vaddr)
        return index

    def _map_page(self, vaddr: int, epc_index: int, tcs: Tcs | None = None) -> None:
        if vaddr in self._page_table:
            raise SgxInstructionFault(f"page 0x{vaddr:x} already mapped")
        self._page_table[vaddr] = epc_index
        if tcs is not None:
            self._tcs[vaddr] = tcs

    def _evict_page(self, vaddr: int) -> int:
        """Mark a page evicted, returning the EPC index it occupied."""
        index = self._page_index(vaddr)
        self._page_table[vaddr] = None
        return index

    def _reload_page(self, vaddr: int, epc_index: int) -> None:
        if self._page_table.get(vaddr, 0) is not None:
            raise SgxInstructionFault(f"page 0x{vaddr:x} is not evicted")
        self._page_table[vaddr] = epc_index

    def _drop_page(self, vaddr: int) -> int | None:
        """Remove a page from the table entirely (EREMOVE)."""
        self._check_alive()
        if vaddr not in self._page_table:
            raise SgxInstructionFault(f"page 0x{vaddr:x} is not mapped")
        index = self._page_table.pop(vaddr)
        self._tcs.pop(vaddr, None)
        return index

    def hw_read(self, vaddr: int, n: int) -> bytes:
        """Read ``n`` bytes at ``vaddr`` (hardware / enclave-mode only).

        Crosses page boundaries; raises :class:`EnclavePageFault` if any
        touched page is evicted.
        """
        self._check_alive()
        out = bytearray()
        flat = self._epc.flat
        cursor, end = vaddr, vaddr + n
        while cursor < end:
            offset = cursor % PAGE_SIZE
            take = min(end - cursor, PAGE_SIZE - offset)
            start = self._page_index(cursor - offset) * PAGE_SIZE + offset
            out += flat[start : start + take]
            cursor += take
        return bytes(out)

    def hw_write(self, vaddr: int, data: bytes) -> None:
        """Write bytes at ``vaddr`` (hardware / enclave-mode only)."""
        self._check_alive()
        flat = self._epc.flat
        view = memoryview(data).cast("B")
        cursor, done = vaddr, 0
        while done < len(view):
            offset = cursor % PAGE_SIZE
            take = min(len(view) - done, PAGE_SIZE - offset)
            start = self._page_index(cursor - offset) * PAGE_SIZE + offset
            flat[start : start + take] = view[done : done + take]
            cursor += take
            done += take

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EnclaveHw eid={self.eid} base=0x{self.secs.base:x} "
            f"pages={len(self._page_table)} init={self.secs.initialized}>"
        )
