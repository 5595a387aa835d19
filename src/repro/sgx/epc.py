"""Enclave Page Cache (EPC) and its map (EPCM).

"EPC is a secure storage used by the processor ... divided into chunks of
4KB pages.  The processor tracks the metadata of the EPC in a secure
structure called EPCM, which is only accessible by hardware" (§II-A).

Pages are bookkeeping objects here; the *access rules* (only the owning
enclave, only in enclave mode) are enforced by :class:`repro.sgx.cpu.
EnclaveSession`, the single capability through which software touches
enclave memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions


@dataclass
class EpcmEntry:
    """EPCM metadata for one EPC page (hardware-only in real SGX)."""

    valid: bool = False
    page_type: PageType = PageType.REG
    owner_eid: int = -1
    vaddr: int = 0
    permissions: Permissions = Permissions.NONE


class EpcPage:
    """One 4 KB EPC page.

    ``data`` holds the byte content of REG pages.  SECS/TCS/VA pages carry
    a hardware object in ``hw_object`` instead (their content is never
    software-visible, so bytes would buy nothing but overhead).  The
    backing bytearray is allocated on first touch: a large EPC is mostly
    never-used zero pages, and allocating them eagerly costs seconds of
    real time per testbed.
    """

    __slots__ = ("index", "_data", "hw_object")

    def __init__(self, index: int) -> None:
        self.index = index
        self._data: bytearray | None = None
        self.hw_object: Any = None

    @property
    def data(self) -> bytearray:
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    @data.setter
    def data(self, value: bytearray) -> None:
        self._data = value

    def wipe(self) -> None:
        self._data = None
        self.hw_object = None


class Epc:
    """A fixed-size EPC with allocation and EPCM bookkeeping.

    Page and EPCM objects exist from an index's first allocation on, the
    way a hypervisor backs EPC on demand (§VI-A): a never-allocated index
    reads as an invalid entry and a zero page.  Indices are handed out
    lowest first, and freed ones are reused last-freed first.
    """

    def __init__(self, n_pages: int) -> None:
        if n_pages < 8:
            raise ValueError("EPC must have at least 8 pages")
        self.n_pages = n_pages
        # Indices below len(self._pages) have been allocated at least once.
        self._pages: list[EpcPage] = []
        self._epcm: list[EpcmEntry] = []
        self._freed: list[int] = []

    # ------------------------------------------------------------- queries
    @property
    def free_count(self) -> int:
        return self.n_pages - self.used_count

    @property
    def used_count(self) -> int:
        return len(self._pages) - len(self._freed)

    def page(self, index: int) -> EpcPage:
        if 0 <= index < len(self._pages):
            return self._pages[index]
        index = range(self.n_pages)[index]  # IndexError off the EPC
        return self._pages[index] if index < len(self._pages) else EpcPage(index)

    def entry(self, index: int) -> EpcmEntry:
        if 0 <= index < len(self._epcm):
            return self._epcm[index]
        index = range(self.n_pages)[index]  # IndexError off the EPC
        return self._epcm[index] if index < len(self._epcm) else EpcmEntry()

    def pages_of(self, eid: int) -> list[int]:
        """Indices of the valid pages owned by enclave ``eid``."""
        return [
            i for i, entry in enumerate(self._epcm) if entry.valid and entry.owner_eid == eid
        ]

    # ------------------------------------------------------------- lifecycle
    def alloc(
        self,
        owner_eid: int,
        vaddr: int,
        page_type: PageType,
        permissions: Permissions,
    ) -> EpcPage:
        """Allocate a free EPC page to an enclave.

        Raises :class:`SgxEpcExhausted` when the EPC is full — the caller
        (driver or hypervisor) is expected to evict a victim page first.
        """
        if self._freed:
            index = self._freed.pop()
            page = self._pages[index]
            page.wipe()
        elif len(self._pages) < self.n_pages:
            index = len(self._pages)
            page = EpcPage(index)
            self._pages.append(page)
            self._epcm.append(EpcmEntry())
        else:
            raise SgxEpcExhausted("no free EPC page")
        entry = self._epcm[index]
        entry.valid = True
        entry.page_type = page_type
        entry.owner_eid = owner_eid
        entry.vaddr = vaddr
        entry.permissions = permissions
        return page

    def free(self, index: int) -> None:
        """Release a page back to the free pool, scrubbing its content."""
        index = range(self.n_pages)[index]  # IndexError off the EPC
        if index >= len(self._epcm) or not self._epcm[index].valid:
            raise SgxInstructionFault(f"EPC page {index} is not allocated")
        entry = self._epcm[index]
        entry.valid = False
        entry.owner_eid = -1
        entry.permissions = Permissions.NONE
        self._pages[index].wipe()
        self._freed.append(index)
