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
        on_demand_map: Callable[[int], None],
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
    def used_pages(self) -> int:
        return self.n_pages - len(self._free)

    def gpa_of(self, page_number: int) -> int:
        return self.base_gpa + page_number * PAGE_SIZE

    # ------------------------------------------------------------- allocation
    def alloc_page(self) -> int:
        """Claim one vEPC page; returns its gpa.

        Raises :class:`SgxEpcExhausted` when the quota is used up — the
        driver's cue to evict.  Touching a page the hypervisor has not
        mapped yet triggers the on-demand mapping callback (EPT violation
        handling, which charges its cost).
        """
        if not self._free:
            raise SgxEpcExhausted(
                f"vEPC quota exhausted ({self.n_pages} pages): guest must evict"
            )
        number = self._free.pop()
        self._allocated[number] = 1
        if number not in self._premapped:
            self._on_demand_map(self.gpa_of(number))
            self._premapped.add(number)
        return self.gpa_of(number)

    def free_page(self, gpa: int) -> None:
        """Return one vEPC page to the quota.

        The guest OS is untrusted (§IV-A): freeing a page it does not hold
        would put the gpa on the free list twice and hand it to two
        enclaves, so the hypervisor refuses it.
        """
        number = (gpa - self.base_gpa) // PAGE_SIZE
        if not 0 <= number < self.n_pages:
            raise SgxInstructionFault(f"0x{gpa:x} is outside the vEPC")
        if not self._allocated[number]:
            raise SgxInstructionFault(f"vEPC page 0x{gpa:x} is not allocated")
        self._allocated[number] = 0
        self._free.append(number)
