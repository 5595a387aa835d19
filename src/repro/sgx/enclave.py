"""Hardware-side enclave state.

One :class:`EnclaveHw` corresponds to one SECS: the linear address range,
the page table from enclave virtual addresses to EPC slots, the TCS set
and the measurement log.  All byte access goes through ``hw_read`` /
``hw_write``, which only :mod:`repro.sgx.instructions` and
:class:`repro.sgx.cpu.EnclaveSession` (the enclave-mode capability) are
allowed to call — outside software never sees these objects' contents.
"""

from __future__ import annotations

from repro.errors import EnclavePageFault, SgxAccessFault, SgxInstructionFault
from repro.sgx.epc import Epc, EpcPage
from repro.sgx.measurement import MeasurementLog
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, Secs, Tcs


class EnclaveHw:
    """An enclave as the processor sees it."""

    def __init__(self, eid: int, base: int, size: int, epc: Epc, secs_page_index: int) -> None:
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise SgxInstructionFault("enclave range must be page aligned")
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

    def page_present(self, vaddr: int) -> bool:
        return self._page_table.get(vaddr) is not None

    def page_permissions(self, vaddr: int) -> Permissions:
        index = self._page_index(vaddr)
        return self._epc.entry(index).permissions

    def page_type(self, vaddr: int) -> PageType:
        index = self._page_index(vaddr)
        return self._epc.entry(index).page_type

    def page_slot(self, vaddr: int) -> tuple[Permissions, EpcPage]:
        """EPCM permissions of the page at ``vaddr`` and the EPC page
        backing it (hardware / enclave-mode only), from one lookup."""
        index = self._page_index(vaddr)
        return self._epc.entry(index).permissions, self._epc.page(index)

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
        cursor = vaddr
        remaining = n
        while remaining > 0:
            page_base = cursor - (cursor % PAGE_SIZE)
            index = self._page_index(page_base)
            offset = cursor - page_base
            take = min(remaining, PAGE_SIZE - offset)
            out.extend(self._epc.page(index).peek()[offset : offset + take])
            cursor += take
            remaining -= take
        return bytes(out)

    def hw_write(self, vaddr: int, data: bytes) -> None:
        """Write bytes at ``vaddr`` (hardware / enclave-mode only)."""
        self._check_alive()
        cursor = vaddr
        view = memoryview(data)
        while view:
            page_base = cursor - (cursor % PAGE_SIZE)
            index = self._page_index(page_base)
            offset = cursor - page_base
            take = min(len(view), PAGE_SIZE - offset)
            self._epc.page(index).data[offset : offset + take] = view[:take]
            cursor += take
            view = view[take:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EnclaveHw eid={self.eid} base=0x{self.secs.base:x} "
            f"pages={len(self._page_table)} init={self.secs.initialized}>"
        )
