"""Extended Page Tables for the guest's virtual-EPC region.

"the hypervisor only maps part of this region to real EPC and leaves the
remaining part unmapped ... If the fault address is located in the virtual
EPC of guest VM, the hypervisor will allocate a physical EPC page and fill
the corresponding EPT entry" (§VI-A).  Ordinary guest RAM is modelled
statistically elsewhere; the EPT here tracks only the vEPC mappings, which
is the part SGX virtualization actually adds.
"""

from __future__ import annotations

from repro.errors import EptViolation
from repro.sgx.structures import PAGE_SIZE


class Ept:
    """Guest-physical to host-EPC mapping for one VM's vEPC region."""

    def __init__(self, vepc_base_gpa: int, vepc_pages: int) -> None:
        self.vepc_base_gpa = vepc_base_gpa
        self.vepc_pages = vepc_pages
        self._map: dict[int, int] = {}  # gpa page number -> physical EPC index
        self.violations = 0

    def _page_number(self, gpa: int) -> int:
        if gpa % PAGE_SIZE:
            raise EptViolation(f"unaligned guest-physical address 0x{gpa:x}")
        number = (gpa - self.vepc_base_gpa) // PAGE_SIZE
        if not 0 <= number < self.vepc_pages:
            raise EptViolation(f"0x{gpa:x} is outside the vEPC region")
        return number

    def in_vepc(self, gpa: int) -> bool:
        return (
            gpa % PAGE_SIZE == 0
            and self.vepc_base_gpa <= gpa < self.vepc_base_gpa + self.vepc_pages * PAGE_SIZE
        )

    def translate(self, gpa: int) -> int:
        """Translate a vEPC guest-physical page; raise on unmapped (fault)."""
        number = self._page_number(gpa)
        if number not in self._map:
            self.violations += 1
            raise EptViolation(f"vEPC page 0x{gpa:x} is not mapped")
        return self._map[number]

    def is_mapped(self, gpa: int) -> bool:
        return self._page_number(gpa) in self._map

    def map(self, gpa: int, epc_index: int) -> None:
        self._map[self._page_number(gpa)] = epc_index

    def unmap(self, gpa: int) -> int:
        """Clear one mapping (hypervisor-side EPC revocation path)."""
        number = self._page_number(gpa)
        if number not in self._map:
            raise EptViolation(f"vEPC page 0x{gpa:x} is not mapped")
        return self._map.pop(number)
