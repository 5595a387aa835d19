"""Virtual EPC: the guest-visible window onto the physical EPC.

"When creating a guest VM, the hypervisor will first reserve a range of
guest physical address which will be used as the guest's EPC region later
... the hypervisor only maps part of this region to real EPC and leaves
the remaining part unmapped" (§VI-A).

The guest SGX driver allocates pages from here; going over the vEPC quota
raises :class:`SgxEpcExhausted`, which the *driver* resolves with its LRU
EWB eviction (§VI-B).  First touches of unmapped gpas go through the
hypervisor's EPT-violation path (on-demand mapping cost).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.hypervisor.ept import Ept
from repro.sgx.structures import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    pass


class VirtualEpc:
    """One VM's EPC quota and lazily mapped gpa space."""

    def __init__(
        self,
        base_gpa: int,
        n_pages: int,
        premapped_pages: int,
        on_demand_map: Callable[[list[int]], None],
    ) -> None:
        self.base_gpa = base_gpa
        self.n_pages = n_pages
        self.ept = Ept(base_gpa, n_pages)
        self._on_demand_map = on_demand_map
        self._free = list(range(n_pages - 1, -1, -1))
        self._allocated = bytearray(n_pages)  # 1 per page the guest holds
        self._premapped = set(range(min(premapped_pages, n_pages)))

    # ------------------------------------------------------------- geometry
    @property
    def size_bytes(self) -> int:
        return self.n_pages * PAGE_SIZE

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.n_pages - len(self._free)

    def gpa_of(self, page_number: int) -> int:
        return self.base_gpa + page_number * PAGE_SIZE

    # ------------------------------------------------------------- allocation
    def alloc_page(self) -> int:
        """Claim one vEPC page; returns its gpa.

        Raises :class:`SgxEpcExhausted` when the quota is used up — the
        driver's cue to evict.  Touching pages the hypervisor has not
        mapped yet triggers the on-demand mapping callback with them (EPT
        violation handling, which charges its cost per page).
        """
        return self.alloc_pages(1)[0]

    def alloc_pages(self, n: int) -> list[int]:
        """Claim ``n`` vEPC pages, as ``n`` :meth:`alloc_page` calls would
        in turn (one EPT violation per page not yet mapped); all or
        nothing when fewer than ``n`` are free."""
        if n > len(self._free):
            raise SgxEpcExhausted(
                f"vEPC quota exhausted ({self.n_pages} pages): guest must evict"
            )
        numbers = self._free[len(self._free) - n :][::-1]
        del self._free[len(self._free) - n :]
        for number in numbers:
            self._allocated[number] = 1
        unmapped = [number for number in numbers if number not in self._premapped]
        if unmapped:
            self._on_demand_map([self.gpa_of(number) for number in unmapped])
            self._premapped.update(unmapped)
        return [self.gpa_of(number) for number in numbers]

    def free_page(self, gpa: int) -> None:
        """Return one vEPC page to the quota.

        The guest OS is untrusted (§IV-A): freeing a page it does not hold
        would put the gpa on the free list twice and hand it to two
        enclaves, so the hypervisor refuses it.
        """
        self.free_pages([gpa])

    def free_pages(self, gpas: list[int]) -> None:
        """Return vEPC pages to the quota in order, as :meth:`free_page`
        would one at a time: the pages before a refused one are freed."""
        # The guest names the gpas: only the leading ones inside the vEPC
        # become an array, and the run stops at the first outside.
        low, high = self.base_gpa, self.base_gpa + self.size_bytes
        inside = len(gpas)
        if gpas and not (low <= min(gpas) and max(gpas) < high):
            inside = next(i for i, gpa in enumerate(gpas) if not low <= gpa < high)
        numbers = (np.array(gpas[:inside], dtype=np.int64) - low) // PAGE_SIZE
        allocated = np.frombuffer(self._allocated, dtype=np.uint8)
        held = allocated[numbers] == 1
        k = inside if held.all() else int(held.argmin())
        listed = numbers[:k].tolist()
        if len(set(listed)) != k:  # named twice: the second free is refused
            seen: set[int] = set()
            for i, number in enumerate(listed):
                if number in seen:
                    k = i
                    break
                seen.add(number)
        allocated[numbers[:k]] = 0
        self._free += listed[:k]
        if k == inside < len(gpas):
            raise SgxInstructionFault(f"0x{gpas[k]:x} is outside the vEPC")
        if k < len(gpas):
            raise SgxInstructionFault(f"vEPC page 0x{gpas[k]:x} is not allocated")
