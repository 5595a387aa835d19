"""The SGX-capable CPU package and the enclave-mode capability.

:class:`SgxCpu` owns the key material that never leaves a processor
(page-encryption key, report-key root, seal-key root), the EPC, and the
table of live enclaves.  :class:`EnclaveSession` is the *only* way any
code in this repository reads or writes enclave memory: it is created by
EENTER/ERESUME, dies at EEXIT/AEX, and enforces page permissions — the
software embodiment of "accesses to the enclave memory area from any
software not resident in the enclave are forbidden" (§II-A).
"""

from __future__ import annotations

import itertools
import struct
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.crypto.hashes import hmac_sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import SgxAccessFault, SgxInstructionFault
from repro.sgx.enclave import EnclaveHw
from repro.sgx.epc import Epc
from repro.sgx.mee import MemoryEncryptionEngine
from repro.sgx.structures import PAGE_SIZE, Permissions, Tcs
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover
    pass

_R, _W = Permissions.R.value, Permissions.W.value
#: Pages a write run joins into one scatter: the staging copy stays small.
_SCATTER_PAGES = 256


class SgxCpu:
    """One physical CPU package with SGX."""

    _ids = itertools.count(1)

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        costs: CostModel,
        trace: EventTrace,
        rng: DeterministicRng,
        epc_pages: int = 4096,
    ) -> None:
        self.name = name
        self.clock = clock
        self.costs = costs
        self.trace = trace
        self.rng = rng
        self.cpu_id = struct.pack(">I", next(self._ids)) + rng.bytes(12)
        self.platform_id = rng.bytes(16)
        self.epc = Epc(epc_pages)
        # Root key material fused into the package at "manufacturing".
        self._root_key = SymmetricKey.random(rng, f"{name}/root")
        self._page_encryption_key = self._root_key.derive("page-encryption")
        self._report_root = self._root_key.derive("report-root")
        self._seal_root = self._root_key.derive("seal-root")
        self.mee = MemoryEncryptionEngine(self._page_encryption_key)
        self.enclaves: dict[int, EnclaveHw] = {}
        self._next_eid = itertools.count(1)
        self._version_counter = itertools.count(1)
        self.aex_count = 0
        self._charge_collector: list[int] | None = None

    # ------------------------------------------------------------ bookkeeping
    def new_eid(self) -> int:
        return next(self._next_eid)

    def next_version(self) -> int:
        return next(self._version_counter)

    def enclave(self, eid: int) -> EnclaveHw:
        enclave = self.enclaves.get(eid)
        if enclave is None:
            raise SgxInstructionFault(f"no enclave with eid {eid} on {self.name}")
        return enclave

    # ------------------------------------------------------------ key derivation
    # These are hardware-internal: only instructions (EGETKEY / EREPORT)
    # and the MEE reach them, always scoped to an identity.
    def _report_key_for(self, mrenclave: bytes) -> bytes:
        return hmac_sha256(self._report_root.material, b"report" + mrenclave)

    def _seal_key_for(self, identity: bytes) -> bytes:
        return hmac_sha256(self._seal_root.material, b"seal" + identity)

    def charge(self, cost_ns: int) -> None:
        """Charge modelled time for an instruction on this CPU.

        Inside a :meth:`collect_charges` block the cost is accumulated for
        the enclosing scheduler thread to yield (so concurrent threads'
        instruction time overlaps correctly) instead of advancing the
        global clock serially.
        """
        if self._charge_collector is not None:
            self._charge_collector[0] += cost_ns
        else:
            self.clock.advance(cost_ns)

    def meter(self, op: str, cost_ns: int, eid: int | None = None) -> None:
        """Charge one dispatched leaf instruction *and* meter it.

        The migration hot path is dominated by EWB/ELDU/ECREATE traffic;
        counting and timing them per CPU (and, where it matters, per
        enclave) is what lets the dump/restore benchmarks attribute cost
        without replaying the event stream.
        """
        self.charge(cost_ns)
        metrics = self.trace.metrics
        metrics.counter("sgx.instructions_total", op=op, cpu=self.name).inc()
        metrics.histogram("sgx.instruction_ns", op=op, cpu=self.name).observe(cost_ns)
        if eid is not None:
            metrics.counter("sgx.enclave_ops_total", op=op, cpu=self.name, eid=eid).inc()

    @contextmanager
    def collect_charges(self):
        """Accumulate instruction charges instead of advancing the clock.

        Yields a one-element list whose single entry is the total ns
        charged inside the block.
        """
        saved = self._charge_collector
        box = [0]
        self._charge_collector = box
        try:
            yield box
        finally:
            self._charge_collector = saved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SgxCpu {self.name} enclaves={len(self.enclaves)}>"


class EnclaveSession:
    """A logical processor executing inside an enclave.

    Created by EENTER (``entered_via='eenter'``, with ``rax`` carrying the
    CSSA value as the instruction's return value — the hook §IV-C's
    tracking builds on) or by ERESUME.  All reads and writes check the
    EPCM permissions of the touched pages; a closed session (after EEXIT
    or AEX) faults on any use.
    """

    def __init__(
        self,
        cpu: SgxCpu,
        enclave: EnclaveHw,
        tcs: Tcs,
        aep: object,
        rax: int,
        entered_via: str,
    ) -> None:
        self.cpu = cpu
        self.enclave = enclave
        self.tcs = tcs
        self.aep = aep
        self.rax = rax
        self.entered_via = entered_via
        self._open = True

    # ------------------------------------------------------------- state
    @property
    def open(self) -> bool:
        return self._open

    def _close(self) -> None:
        self._open = False

    def _require_open(self) -> None:
        if not self._open:
            raise SgxAccessFault("enclave session is closed (after EEXIT/AEX)")

    @property
    def private(self) -> dict[str, object]:
        """Enclave-private state that outlives this session, not the enclave.

        The trusted runtime's own heap: state one ecall leaves for a later
        one (the target keeps what it restored for step 4 here) without a
        named object slot in the measured layout.  Only an open session of
        a live enclave reaches it.
        """
        self._require_open()
        self.enclave._check_alive()
        return self.enclave._private

    # ------------------------------------------------------------- memory
    # Faults come in one order on every path: a closed session, an
    # address outside the range, then per touched page, lowest first, a
    # dead enclave, an unmapped page, an evicted page (EnclavePageFault),
    # a missing permission.  An access inside one page is checked once
    # and served from the page it looked up; a page run checks its pages
    # as arrays, serves the pages before the first that would fault, and
    # then faults on that one exactly as a one-page access does.
    def _page(self, page: int, needed: int) -> int:
        """The arena offset of ``page`` once it passes the checks for
        permission bits ``needed``."""
        index = self.enclave._page_index(page)
        perms = self.cpu.epc.perms[index]
        if perms & needed != needed:
            raise SgxAccessFault(
                f"page 0x{page:x} lacks {Permissions(needed)} permission"
                f" (has {Permissions(perms)})"
            )
        return index * PAGE_SIZE

    def _check_pages(self, vaddr: int, n: int, needed: int) -> None:
        first = vaddr - (vaddr % PAGE_SIZE)
        last = (vaddr + max(n, 1) - 1) - ((vaddr + max(n, 1) - 1) % PAGE_SIZE)
        for page in range(first, last + 1, PAGE_SIZE):
            self._page(page, needed)

    def _check_range(self, vaddr: int) -> int:
        """Refuse a closed session or a foreign address; the page offset."""
        self._require_open()
        if not self.enclave.contains(vaddr):
            raise SgxAccessFault(f"0x{vaddr:x} is outside the enclave range")
        return vaddr % PAGE_SIZE

    def read(self, vaddr: int, n: int) -> bytes:
        """Read enclave memory (requires R permission on touched pages)."""
        offset = self._check_range(vaddr)
        if offset + n <= PAGE_SIZE:
            start = self._page(vaddr - offset, _R) + offset
            return bytes(self.cpu.epc.flat[start : start + n])
        self._check_pages(vaddr, n, _R)
        return self.enclave.hw_read(vaddr, n)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write enclave memory (requires W permission on touched pages)."""
        offset = self._check_range(vaddr)
        n = len(data)
        if offset + n <= PAGE_SIZE:
            start = self._page(vaddr - offset, _W) + offset
            self.cpu.epc.flat[start : start + n] = data
            return
        self._check_pages(vaddr, n, _W)
        self.enclave.hw_write(vaddr, data)

    def _fault(self, vaddr: int, needed: int) -> None:
        """Raise the fault a one-page access to ``vaddr`` meets."""
        self._check_range(vaddr)
        self._page(vaddr, needed)

    def read_pages(self, vaddrs: Sequence[int], out: list) -> list:
        """Read whole pages: append the page at each of ``vaddrs[len(out):]``.

        The pages are gathered from the arena in one copy and appended as
        read-only views of it.  Each page address is checked as a one-page
        :meth:`read` checks it, in order, so a run faults where and as its
        first faulting page would alone; ``out`` then holds the pages
        before that one, and calling again with it resumes there.
        Returns ``out``.
        """
        self._require_open()
        todo = vaddrs[len(out) :]
        indices = self.enclave.page_run(todo, _R)
        if indices:
            pages = self.cpu.epc.memory[indices]
            pages.flags.writeable = False
            flat = memoryview(pages.reshape(-1))
            out += [flat[at : at + PAGE_SIZE] for at in range(0, len(flat), PAGE_SIZE)]
        if len(indices) < len(todo):
            self._fault(todo[len(indices)], _R)
            stop = todo[len(indices)]
            raise AssertionError(f"read run stopped at 0x{stop:x}, which passes every check")
        return out

    def write_pages(self, vaddrs: Sequence[int], pages: Sequence[bytes], start: int = 0) -> None:
        """Write whole 4 KB pages, ``pages[i]`` at ``vaddrs[i]``, from
        ``start`` on, scattered into the arena a megabyte at a time,
        checked and faulting as :meth:`read_pages`; a page that is not
        4 KB faults as content."""
        self._require_open()
        todo = vaddrs[start:]
        indices = self.enclave.page_run(todo, _W)
        sizes = np.fromiter(map(len, pages[start : start + len(indices)]), np.int64, len(indices))
        if (sizes != PAGE_SIZE).any():
            del indices[int(np.argmax(sizes != PAGE_SIZE)) :]
        self.cpu.epc.reserve(len(indices))
        memory = self.cpu.epc.memory
        for at in range(0, len(indices), _SCATTER_PAGES):
            rows = indices[at : at + _SCATTER_PAGES]
            data = b"".join(pages[start + at : start + at + len(rows)])
            memory[rows] = np.frombuffer(data, np.uint8).reshape(-1, PAGE_SIZE)
        if len(indices) < len(todo):
            self._fault(todo[len(indices)], _W)
            raise SgxInstructionFault("a page run writes whole 4 KB pages")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self._open else "closed"
        return f"<EnclaveSession eid={self.enclave.eid} tcs=0x{self.tcs.vaddr:x} {state}>"
