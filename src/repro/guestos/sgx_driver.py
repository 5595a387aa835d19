"""The guest SGX driver.

§VI-B: "Our SGX driver in the guest OS first asks the hypervisor for the
address of EPC and then maps the whole EPC into the kernel virtual address
space ... If the SGX driver needs to allocate a new EPC page when it has
already used up all its EPC, it will first choose some EPC pages based on
a simplified LRU algorithm and then use SGX instructions to swap them into
normal memory."

The driver also keeps the enclave creation/destruction records the target
guest OS replays to rebuild enclaves after migration (§VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import GuestOsError, NoSuchEnclave, SgxEpcExhausted
from repro.sdk.image import EnclaveImage
from repro.sgx import instructions as isa
from repro.sgx.enclave import EnclaveHw
from repro.sgx.structures import (
    VA_SLOTS_PER_PAGE,
    EvictedPage,
    PageType,
    Permissions,
    Tcs,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.hypervisor.vm import Vm


@dataclass
class EnclaveRecord:
    """One line of the driver's creation log (replayed on the target)."""

    enclave_id: int
    image: EnclaveImage
    destroyed: bool = False


@dataclass
class _DriverEnclave:
    enclave_id: int
    image: EnclaveImage
    hw: EnclaveHw
    gpa_map: dict[int, int] = field(default_factory=dict)  # vaddr -> gpa
    evicted: dict[int, tuple[EvictedPage, int, int]] = field(default_factory=dict)


def _page_content(image: EnclaveImage, spec) -> bytes | Tcs:
    """What EADD adds for one image page: its bytes, or a fresh TCS."""
    if spec.tcs_index is None:
        return spec.content
    template = image.tcs_templates[spec.tcs_index]
    return Tcs(template.vaddr, template.oentry, template.ossa, template.nssa)


class SgxDriver:
    """Per-VM SGX driver state and operations."""

    def __init__(self, machine: "Machine", vm: "Vm") -> None:
        self.machine = machine
        self.vm = vm
        self.cpu = machine.cpu
        self.trace = machine.trace
        self.costs = machine.costs
        # Learn the vEPC geometry from the hypervisor (new hypercall).
        machine.hypervisor.hc_get_epc_info(vm)
        self._enclaves: dict[int, _DriverEnclave] = {}
        self._next_id = 1
        self.records: list[EnclaveRecord] = []
        #: Resident REG pages, ``(id, vaddr)``, least recently touched first.
        self._lru: dict[tuple[int, int], None] = {}
        self._va_pages: list[tuple[int, list[int]]] = []  # (epc index, free slots)
        self.page_fault_count = 0
        self.refuse_new_enclaves = False
        # Reserve one Version Array page up front: eviction *requires* a
        # VA slot, and allocating one under full-EPC pressure would need
        # the very page we are trying to free (real drivers do the same).
        index = isa.alloc_va_page(self.cpu)
        self._va_pages.append((index, list(range(VA_SLOTS_PER_PAGE - 1, -1, -1))))

    # ------------------------------------------------------------- helpers
    def _touch(self, enclave_id: int, vaddr: int) -> None:
        """Move one page to the most recently used end of the LRU."""
        key = (enclave_id, vaddr)
        self._lru.pop(key, None)
        self._lru[key] = None

    def _touch_run(self, enclave_id: int, vaddrs: list[int]) -> None:
        """Append a fresh enclave's pages, in order, as most recently used."""
        self._lru.update(dict.fromkeys((enclave_id, v) for v in vaddrs))

    def _va_slot(self) -> tuple[int, int]:
        for index, free in self._va_pages:
            if free:
                return index, free.pop()
        index = self._with_physical_epc(lambda: isa.alloc_va_page(self.cpu))
        free = list(range(VA_SLOTS_PER_PAGE - 1, 0, -1))
        self._va_pages.append((index, free))
        return index, VA_SLOTS_PER_PAGE - 1  # slot taken implicitly

    def _release_va_slot(self, va_index: int, slot: int) -> None:
        for index, free in self._va_pages:
            if index == va_index:
                free.append(slot)
                return

    def _pick_victim(self, skip: tuple[int, int] | None = None) -> tuple[int, int]:
        """Least-recently-used resident REG page across all enclaves."""
        for key in self._lru:
            if key == skip:
                continue
            enclave_id, vaddr = key
            denc = self._enclaves.get(enclave_id)
            if denc is None or not denc.hw.page_present(vaddr):
                continue
            if denc.hw.page_type(vaddr) is PageType.REG:
                return key
        raise SgxEpcExhausted("vEPC exhausted and no evictable page found")

    def _evict_one(self, skip: tuple[int, int] | None = None) -> None:
        enclave_id, vaddr = self._pick_victim(skip)
        denc = self._enclaves[enclave_id]
        va_index, slot = self._va_slot()
        blob = isa.ewb(self.cpu, denc.hw, vaddr, va_index, slot)
        denc.evicted[vaddr] = (blob, va_index, slot)
        self.vm.vepc.free_page(denc.gpa_map.pop(vaddr))
        self._lru.pop((enclave_id, vaddr), None)
        self.trace.count("driver.evictions")

    def _alloc_gpa(self, skip: tuple[int, int] | None = None) -> int:
        """Claim one vEPC page, LRU-evicting until one is available."""
        while True:
            try:
                return self.vm.vepc.alloc_page()
            except SgxEpcExhausted:
                self._evict_one(skip)

    def _with_physical_epc(self, fn, skip: tuple[int, int] | None = None, tried: int = 0):
        """Run an EPC-consuming instruction, resolving *physical* pressure.

        The vEPC quota is the driver's own business (``_alloc_gpa``);
        running out of physical EPC means the hypervisor overcommitted
        and must revoke a page from some VM (§VI-A) — possibly this one.
        ``tried`` counts the attempts a caller already made and saw
        exhaust the EPC: the loop reclaims first, then tries again.
        """
        from repro.errors import HypervisorError

        for attempt in range(tried, 256):
            if attempt:
                try:
                    self.machine.hypervisor.reclaim_physical(self.vm.name)
                except HypervisorError:
                    self._evict_one(skip)  # we are the only tenant: self-evict
            try:
                return fn()
            except SgxEpcExhausted:
                pass
        raise SgxEpcExhausted("physical EPC pressure could not be resolved")

    # ------------------------------------------------------------- ioctl API
    def create_enclave(self, image: EnclaveImage) -> int:
        """Build a runnable enclave from an image (ioctl ECREATE..EINIT)."""
        if self.refuse_new_enclaves:
            raise GuestOsError("guest OS is migrating: enclave creation refused")
        enclave_id = self._next_id
        self._next_id += 1

        secs_gpa = self._alloc_gpa()
        hw = self._with_physical_epc(
            lambda: isa.ecreate(self.cpu, image.layout.base, image.layout.size)
        )
        denc = _DriverEnclave(enclave_id, image, hw)
        denc.gpa_map[-1] = secs_gpa  # SECS occupies one quota page
        self._enclaves[enclave_id] = denc

        # EADD+EEXTEND in page runs, each as long as both the vEPC quota
        # and the physical EPC have room for; a page that needs an
        # eviction or a reclaim first goes alone, as in a per-page loop.
        pages = image.pages
        vaddrs = [spec.vaddr for spec in pages]
        sec_infos = [spec.sec_info for spec in pages]
        measure = [spec.measure for spec in pages]
        contents = [_page_content(image, spec) for spec in pages]
        start = 0
        while start < len(pages):
            n = min(len(pages) - start, self.vm.vepc.free_count, self.cpu.epc.free_count)
            run = slice(start, start + max(n, 1))
            add = lambda: isa.eadd_run(  # noqa: E731
                self.cpu, hw, vaddrs[run], sec_infos[run], contents[run], measure[run]
            )
            if n:
                gpas = self.vm.vepc.alloc_pages(n)
                add()
            else:
                gpas = [self._alloc_gpa()]
                try:
                    add()
                except SgxEpcExhausted:  # the reclaim loop, only when it is needed
                    self._with_physical_epc(add, tried=1)
            denc.gpa_map.update(zip(vaddrs[run], gpas))
            added = zip(vaddrs[run], sec_infos[run])
            self._touch_run(enclave_id, [v for v, info in added if info.page_type is PageType.REG])
            start = run.stop
        isa.einit(self.cpu, hw, image.sigstruct)

        self.records.append(EnclaveRecord(enclave_id, image))
        self.trace.emit(
            "driver", "create_enclave", id=enclave_id, image=image.name, pages=image.n_pages
        )
        return enclave_id

    def rebuild_from_records(self, records: list[EnclaveRecord]) -> dict[int, int]:
        """Replay a migrated VM's enclave creation log (§VI-D).

        "the guest OS rebuilds all the enclaves according to the records
        of enclave creation and destruction."  Destroyed enclaves are
        skipped; live ones are rebuilt as virgin instances (their state
        arrives separately via their control threads).  Returns the
        mapping from the source's enclave ids to the rebuilt ids.
        """
        mapping: dict[int, int] = {}
        for record in records:
            if record.destroyed:
                continue
            mapping[record.enclave_id] = self.create_enclave(record.image)
        return mapping

    def destroy_enclave(self, enclave_id: int) -> None:
        denc = self._entry(enclave_id)
        isa.destroy_enclave(self.cpu, denc.hw)
        self.vm.vepc.free_pages(list(denc.gpa_map.values()))
        for _, va_index, slot in denc.evicted.values():
            self._release_va_slot(va_index, slot)
        for key in [k for k in self._lru if k[0] == enclave_id]:
            del self._lru[key]
        del self._enclaves[enclave_id]
        for record in self.records:
            if record.enclave_id == enclave_id:
                record.destroyed = True
        self.trace.emit("driver", "destroy_enclave", id=enclave_id)

    def _entry(self, enclave_id: int) -> _DriverEnclave:
        denc = self._enclaves.get(enclave_id)
        if denc is None:
            raise NoSuchEnclave(f"enclave id {enclave_id}")
        return denc

    def hw(self, enclave_id: int) -> EnclaveHw:
        return self._entry(enclave_id).hw

    def image(self, enclave_id: int) -> EnclaveImage:
        return self._entry(enclave_id).image

    def live_enclave_ids(self) -> list[int]:
        return sorted(self._enclaves)

    # ------------------------------------------------------------- faults
    def handle_page_fault(self, enclave_id: int, vaddr: int) -> None:
        """Load an evicted page back (the EPT-violation / #PF round trip)."""
        denc = self._entry(enclave_id)
        if vaddr not in denc.evicted:
            raise GuestOsError(f"page fault at 0x{vaddr:x} but page is not evicted")
        self.machine.clock.advance(self.costs.epc_fault_ns)
        self.page_fault_count += 1
        self.trace.count("driver.page_faults")
        blob, va_index, slot = denc.evicted.pop(vaddr)
        gpa = self._alloc_gpa(skip=(enclave_id, vaddr))
        self._with_physical_epc(
            lambda: isa.eldb(self.cpu, denc.hw, blob, va_index, slot),
            skip=(enclave_id, vaddr),
        )
        denc.gpa_map[vaddr] = gpa
        self._release_va_slot(va_index, slot)
        self._touch(enclave_id, vaddr)
