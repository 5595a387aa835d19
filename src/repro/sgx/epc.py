"""Enclave Page Cache (EPC) and its map (EPCM).

"EPC is a secure storage used by the processor ... divided into chunks of
4KB pages.  The processor tracks the metadata of the EPC in a secure
structure called EPCM, which is only accessible by hardware" (§II-A).

The EPC is one content arena, ``n_pages`` rows of 4 KB, and the EPCM is
five parallel columns indexed by page: valid, type, owner, vaddr and
permissions.  The arena is an anonymous private mapping, zero and unbacked
until a page is first written — the way a hypervisor backs EPC on demand
(§VI-A) — so a large EPC costs only the pages an enclave writes; the
columns live in a second such mapping.  Each column is a typed
``memoryview`` that indexes fast one element at a time, with a ``numpy``
view over the same memory for page runs.  The
hardware objects of SECS, TCS and VA pages live in :attr:`Epc.hw`.

The *access rules* (only the owning enclave, only in enclave mode) are
enforced by :class:`repro.sgx.cpu.EnclaveSession`, the single capability
through which software touches enclave memory.
"""

from __future__ import annotations

import mmap
import sys
from typing import Any

import numpy as np

from repro.buffers import lazy_zero_mapping
from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, PAGE_TYPES, TYPE_CODE, PageType, Permissions

#: EPCM permission column values (R|W|X bits) as Permissions.
_PERMISSIONS = tuple(Permissions(bits) for bits in range(8))
#: Whether ``MADV_DONTNEED`` zero-fills a private page, so that handing a
#: freed page back to the host scrubs it.  Only Linux promises that; on
#: other hosts it is a hint that may leave the bytes in place.
_DONTNEED_ZEROES = sys.platform.startswith("linux") and mmap.PAGESIZE == PAGE_SIZE


class Epc:
    """A fixed-size EPC with allocation and EPCM bookkeeping.

    A never-allocated index reads as an invalid EPCM row and a zero page.
    Indices are handed out lowest first, and freed ones are reused
    last-freed first.  Freeing a page scrubs it: on Linux its arena row is
    handed back to the host, so it reads zero and costs no memory until
    written again; elsewhere the row is overwritten with zeros.
    """

    def __init__(self, n_pages: int) -> None:
        if n_pages < 8:
            raise ValueError("EPC must have at least 8 pages")
        self.n_pages = n_pages
        self._map = lazy_zero_mapping(n_pages * PAGE_SIZE)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):  # back written pages one 4 KB page at a time
            self._map.madvise(mmap.MADV_NOHUGEPAGE)
        #: The content arena, one row per page.
        self.memory = np.frombuffer(self._map, dtype=np.uint8).reshape(n_pages, PAGE_SIZE)
        #: The same bytes, flat, for sub-page slices.
        self.flat = memoryview(self._map)
        # The EPCM columns share one lazily zero mapping too: owners and
        # vaddrs (8 bytes a page), then valid, types and perms (1 byte).
        # All-zero reads as an invalid REG row; an invalid row's owner
        # reads -1.  A freed row keeps its type and vaddr, as hardware
        # leaves them.
        self._epcm = lazy_zero_mapping(19 * n_pages)
        column = memoryview(self._epcm)
        self.owners = column[: 8 * n_pages].cast("q")
        self.vaddrs = column[8 * n_pages : 16 * n_pages].cast("Q")
        self.valid = column[16 * n_pages : 17 * n_pages]
        self.types = column[17 * n_pages : 18 * n_pages]
        self.perms = column[18 * n_pages :]
        self._owners = np.frombuffer(self._epcm, np.int64, n_pages, 0)
        self._vaddrs = np.frombuffer(self._epcm, np.uint64, n_pages, 8 * n_pages)
        self._valid = np.frombuffer(self._epcm, np.uint8, n_pages, 16 * n_pages)
        self._types = np.frombuffer(self._epcm, np.uint8, n_pages, 17 * n_pages)
        self._perms = np.frombuffer(self._epcm, np.uint8, n_pages, 18 * n_pages)
        #: Hardware objects of SECS, TCS and VA pages, by index.
        self.hw: dict[int, Any] = {}
        # Indices below self._high have been allocated at least once.
        self._high = 0
        self._freed: list[int] = []

    # ------------------------------------------------------------- queries
    @property
    def free_count(self) -> int:
        return self.n_pages - self.used_count

    @property
    def used_count(self) -> int:
        return self._high - len(self._freed)

    def check(self, index: int) -> int:
        """``index`` if it names an EPC page; IndexError off the EPC."""
        if not 0 <= index < self.n_pages:
            raise IndexError(f"EPC page {index} is outside [0, {self.n_pages})")
        return index

    def is_valid(self, index: int) -> bool:
        return bool(self.valid[self.check(index)])

    def page_type(self, index: int) -> PageType:
        return PAGE_TYPES[self.types[self.check(index)]]

    def owner(self, index: int) -> int:
        return self.owners[index] if self.valid[self.check(index)] else -1

    def vaddr(self, index: int) -> int:
        return self.vaddrs[self.check(index)]

    def permissions(self, index: int) -> Permissions:
        return _PERMISSIONS[self.perms[self.check(index)]]

    def set_permissions(self, index: int, permissions: Permissions) -> None:
        self.perms[self.check(index)] = permissions.value

    def read(self, index: int, offset: int, n: int) -> bytes:
        """A copy of ``n`` bytes of page ``index`` from ``offset``."""
        start = self.check(index) * PAGE_SIZE + offset
        return bytes(self.flat[start : start + n])

    def write(self, index: int, offset: int, data: bytes) -> None:
        """Overwrite bytes of page ``index`` from ``offset`` (within the page)."""
        if offset + len(data) > PAGE_SIZE:
            raise SgxInstructionFault("page content exceeds 4KB")
        start = self.check(index) * PAGE_SIZE + offset
        self.flat[start : start + len(data)] = data

    def pages_of(self, eid: int) -> list[int]:
        """Indices of the valid pages owned by enclave ``eid``."""
        return np.flatnonzero(self._valid.astype(bool) & (self._owners == eid)).tolist()

    # ------------------------------------------------------------- lifecycle
    def _claim(self, n: int) -> list[int]:
        """Take ``n`` free indices, each as one allocation would in turn."""
        if n > self.free_count:
            raise SgxEpcExhausted("no free EPC page")
        reused = min(n, len(self._freed))
        indices = self._freed[len(self._freed) - reused :][::-1]
        del self._freed[len(self._freed) - reused :]
        indices += range(self._high, self._high + n - reused)
        self._high += n - reused
        return indices

    def alloc(
        self,
        owner_eid: int,
        vaddr: int,
        page_type: PageType,
        permissions: Permissions,
        hw_object: Any = None,
    ) -> int:
        """Allocate a free EPC page to an enclave; returns its index.

        Raises :class:`SgxEpcExhausted` when the EPC is full — the caller
        (driver or hypervisor) is expected to evict a victim page first.
        """
        (index,) = self._claim(1)
        self.valid[index] = 1
        self.types[index] = TYPE_CODE[page_type]
        self.perms[index] = permissions.value
        self.owners[index] = owner_eid
        self.vaddrs[index] = vaddr
        if hw_object is not None:
            self.hw[index] = hw_object
        return index

    def alloc_run(
        self, owner_eid: int, vaddrs: np.ndarray, types: np.ndarray, perms: np.ndarray
    ) -> list[int]:
        """Allocate one page per vaddr, as :meth:`alloc` would in turn.

        ``types`` and ``perms`` hold each page's type code and permission
        bits.  All or nothing: :class:`SgxEpcExhausted` if fewer pages are
        free than asked for.
        """
        indices = self._claim(len(vaddrs))
        rows = np.array(indices, dtype=np.intp)
        self._valid[rows] = 1
        self._types[rows] = types
        self._perms[rows] = perms
        self._owners[rows] = owner_eid
        self._vaddrs[rows] = vaddrs
        return indices

    def free(self, index: int) -> None:
        """Release a page back to the free pool, scrubbing its content."""
        self.free_run([self.check(index)])

    def free_run(self, indices: list[int]) -> None:
        """Free pages in order, as :meth:`free` would one at a time.

        All or nothing: an index off the EPC, one not allocated, or one
        named twice faults before any page is freed.
        """
        if indices and not (0 <= min(indices) and max(indices) < self.n_pages):
            raise IndexError(f"EPC page run leaves [0, {self.n_pages})")
        rows = np.array(indices, dtype=np.intp)
        stale = self._valid[rows] == 0
        if stale.any():
            raise SgxInstructionFault(f"EPC page {rows[np.argmax(stale)]} is not allocated")
        if len(np.unique(rows)) != len(rows):
            raise SgxInstructionFault("EPC page run frees a page twice")
        self._valid[rows] = 0
        self._perms[rows] = 0
        for index in indices:
            self.hw.pop(index, None)
        ordered = np.sort(rows)
        for run in np.split(ordered, np.flatnonzero(np.diff(ordered) != 1) + 1):
            if len(run):
                self._scrub(int(run[0]), len(run))
        self._freed.extend(indices)

    def _scrub(self, first: int, n: int) -> None:
        """Zero ``n`` adjacent pages, where the host allows by handing
        their memory back to it."""
        if _DONTNEED_ZEROES:
            self._map.madvise(mmap.MADV_DONTNEED, first * PAGE_SIZE, n * PAGE_SIZE)
        else:
            self.memory[first : first + n] = 0
