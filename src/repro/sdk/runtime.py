"""The in-enclave runtime: what the SDK links into every enclave.

Everything here executes *inside* an enclave session (the code the TCB
trusts).  It provides:

* faulting memory access (evicted pages are transparently reloaded by the
  untrusted driver, as hardware page faults would arrange);
* a tiny allocator and a named object store over enclave heap pages;
* the two-phase-checkpointing flags (§IV-B): the global flag at the
  enclave base and the per-TCS local flags;
* the entry/exit stubs and the in-enclave CSSA bookkeeping of §IV-C:
  "At the entry of enclave, the stub code will record CSSA_EENTER (the
  return value of EENTER)."
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.crypto.authenc import open_value, seal_value
from repro.crypto.dh import dh_private
from repro.crypto.hashes import sha256
from repro.errors import (
    EnclavePageFault,
    MigrationError,
    StorageRetired,
    StorageRolledBack,
)
from repro.sdk.image import (
    FLAG_BUSY,
    FLAG_FREE,
    FLAG_SPIN,
    OBJ_BOOT,
    TCS_CSSA_EENTER_OFF,
    TCS_LOCAL_FLAG_OFF,
    TCS_PREV_FLAG_OFF,
    TCS_REPLAY_COUNT_OFF,
    EnclaveImage,
)
from repro.serde import pack, unpack
from repro.sgx.cpu import EnclaveSession
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.journal import Journal


class EnclaveRuntime:
    """Runtime services bound to one open enclave session."""

    def __init__(
        self,
        session: EnclaveSession,
        image: EnclaveImage,
        fault_handler: Callable[[int], None],
        rdrand: DeterministicRng,
        journal: "Journal",
    ) -> None:
        self.session = session
        self.image = image
        self.layout = image.layout
        self._fault_handler = fault_handler
        self.rdrand = rdrand  # models the in-enclave RDRAND entropy source
        #: Write-ahead journal for this enclave's protocol transitions; its
        #: store also holds the sealed-storage namespaces and the one-use
        #: key tokens.
        self._journal = journal

    # ------------------------------------------------------------ raw memory
    def read(self, vaddr: int, n: int) -> bytes:
        """Read enclave memory, transparently resolving evicted pages."""
        while True:
            try:
                return self.session.read(vaddr, n)
            except EnclavePageFault as fault:
                self._fault_handler(fault.vaddr)

    def write(self, vaddr: int, data: bytes) -> None:
        while True:
            try:
                self.session.write(vaddr, data)
                return
            except EnclavePageFault as fault:
                self._fault_handler(fault.vaddr)

    def read_pages(self, vaddrs: Sequence[int], rows: np.ndarray) -> None:
        """Read whole pages into ``rows`` (``rows[i]`` from ``vaddrs[i]``)
        in one page run.

        An evicted page is resolved where the run meets it, and the run
        resumes there: the same faults, in the same order, as one
        :meth:`read` per page.
        """
        self._page_run(self.session.read_pages, vaddrs, rows)

    def write_pages(self, vaddrs: Sequence[int], pages: Sequence[bytes]) -> None:
        """Write whole pages (``pages[i]`` at ``vaddrs[i]``; 4 KB rows or
        page buffers) in one page run, resolving evicted pages as
        :meth:`read_pages` does."""
        self._page_run(self.session.write_pages, vaddrs, pages)

    def _page_run(self, run, vaddrs: Sequence[int], pages) -> None:
        start = 0
        while True:
            try:
                run(vaddrs, pages, start)
                return
            except EnclavePageFault as fault:
                self._fault_handler(fault.vaddr)
                start = vaddrs.index(fault.vaddr, start)

    def load_u64(self, vaddr: int) -> int:
        return struct.unpack("<Q", self.read(vaddr, 8))[0]

    def store_u64(self, vaddr: int, value: int) -> None:
        self.write(vaddr, struct.pack("<Q", value))

    # ------------------------------------------------------------ globals
    def load_global(self, name: str) -> int:
        return self.load_u64(self.layout.global_slot(name))

    def store_global(self, name: str, value: int) -> None:
        self.store_u64(self.layout.global_slot(name), value)

    # ------------------------------------------------------------ object store
    def store_obj(self, name: str, obj: Any) -> None:
        """Persist a canonical value in the named enclave-memory slot."""
        vaddr, capacity = self.layout.object_slot(name)
        blob = pack(obj)
        if len(blob) + 8 > capacity:
            raise MigrationError(
                f"object {name!r} needs {len(blob) + 8} bytes but slot holds {capacity}"
            )
        self.write(vaddr, struct.pack("<Q", len(blob)) + blob)

    def load_obj(self, name: str, default: Any = None) -> Any:
        vaddr, _capacity = self.layout.object_slot(name)
        length = self.load_u64(vaddr)
        if length == 0:
            return default
        return unpack(self.read(vaddr + 8, length))

    def delete_obj(self, name: str) -> None:
        vaddr, _capacity = self.layout.object_slot(name)
        self.store_u64(vaddr, 0)

    # ------------------------------------------------------------ flags (§IV-B)
    def global_flag(self) -> int:
        return self.load_u64(self.layout.global_flag_vaddr())

    def set_global_flag(self, value: int) -> None:
        self.store_u64(self.layout.global_flag_vaddr(), value)

    def restore_mode(self) -> int:
        return self.load_u64(self.layout.restore_mode_vaddr())

    def set_restore_mode(self, value: int) -> None:
        self.store_u64(self.layout.restore_mode_vaddr(), value)

    def attested(self) -> bool:
        return self.load_u64(self.layout.attested_vaddr()) == 1

    def set_attested(self) -> None:
        self.store_u64(self.layout.attested_vaddr(), 1)

    def channel_state(self) -> int:
        return self.load_u64(self.layout.channel_state_vaddr())

    def set_channel_state(self, value: int) -> None:
        self.store_u64(self.layout.channel_state_vaddr(), value)

    def go_live_token(self) -> int:
        return self.load_u64(self.layout.go_live_token_vaddr())

    def set_go_live_token(self, value: int) -> None:
        self.store_u64(self.layout.go_live_token_vaddr(), value)

    def local_flag(self, tcs_index: int) -> int:
        return self.load_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_LOCAL_FLAG_OFF))

    def set_local_flag(self, tcs_index: int, value: int) -> None:
        self.store_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_LOCAL_FLAG_OFF), value)

    def cssa_eenter(self, tcs_index: int) -> int:
        return self.load_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_CSSA_EENTER_OFF))

    def replay_count(self, tcs_index: int) -> int:
        return self.load_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_REPLAY_COUNT_OFF))

    def set_replay_count(self, tcs_index: int, value: int) -> None:
        self.store_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_REPLAY_COUNT_OFF), value)

    # ------------------------------------------------------------ stubs (§IV-C)
    def entry_stub(self, tcs_index: int) -> str:
        """SDK code at the fixed enclave entry; returns the path to take.

        * ``"proceed"`` — normal ecall, run the requested entry.
        * ``"spin"``    — the global flag is set: park in the spin region.
        * ``"handler"`` — entered with CSSA > 0: exception-handler path.
        """
        rax = self.session.rax  # EENTER's return value: the current CSSA
        record = self.layout.tcs_record_vaddr(tcs_index, TCS_CSSA_EENTER_OFF)
        self.store_u64(record, rax)
        if self.restore_mode() == 1:
            # Target-side CSSA replay: count this entry for verification.
            self.set_replay_count(tcs_index, self.replay_count(tcs_index) + 1)
            return "spin"
        if rax > 0:
            return "handler"
        # Save the previous local flag and mark the thread busy.
        prev = self.local_flag(tcs_index)
        self.store_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_PREV_FLAG_OFF), prev)
        if self.global_flag() == 1:
            self.set_local_flag(tcs_index, FLAG_SPIN)
            return "spin"
        self.set_local_flag(tcs_index, FLAG_BUSY)
        return "proceed"

    def control_entry_stub(self, tcs_index: int) -> None:
        """Entry stub for the control TCS.

        The control thread *is* the migration machinery, so it never
        parks on the global flag and its entries are not counted as CSSA
        replays; it only maintains its own bookkeeping.
        """
        record = self.layout.tcs_record_vaddr(tcs_index, TCS_CSSA_EENTER_OFF)
        self.store_u64(record, self.session.rax)
        prev = self.local_flag(tcs_index)
        self.store_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_PREV_FLAG_OFF), prev)
        self.set_local_flag(tcs_index, FLAG_BUSY)

    def exit_stub(self, tcs_index: int) -> None:
        """SDK code at the exit: restore the saved local flag."""
        prev = self.load_u64(self.layout.tcs_record_vaddr(tcs_index, TCS_PREV_FLAG_OFF))
        self.set_local_flag(tcs_index, prev)

    def handler_check(self, tcs_index: int) -> str:
        """The SDK exception handler: park if a migration is in progress.

        "If the global flag is set, the thread will also set its local
        flag to spin and spin in the exception handler until the end of
        migration" (§IV-B).
        """
        if self.global_flag() == 1:
            self.set_local_flag(tcs_index, FLAG_SPIN)
            return "spin"
        return "resume"

    def quiescent(self, worker_indices: list[int]) -> bool:
        """Control-thread check: are all workers in a safe state?

        "The control thread waits until a quiescent point when all the
        worker threads are in either free or spin state" (§IV-B).
        """
        return all(
            self.local_flag(i) in (FLAG_FREE, FLAG_SPIN) for i in worker_indices
        )

    # ------------------------------------------------------------ heap
    # "For some functions, such as malloc and free, the SDK implements
    # them in enclave directly" (§VI-C).  A first-fit free-list allocator
    # whose metadata lives in enclave memory, so allocations survive
    # checkpointing/migration like any other enclave state.
    _HEAP_HDR = 16  # per-block header: u64 size | u64 state (0 free, 1 used)

    def _heap_init_if_needed(self) -> None:
        base = self.layout.heap_base
        if self.layout.heap_bytes < 2 * self._HEAP_HDR:
            raise MigrationError("image has no heap")
        if self.load_u64(base) == 0:  # first use: one big free block
            self.store_u64(base, self.layout.heap_bytes - self._HEAP_HDR)
            self.store_u64(base + 8, 0)

    def malloc(self, n_bytes: int) -> int:
        """Allocate ``n_bytes`` of enclave heap; returns the vaddr."""
        if n_bytes <= 0:
            raise MigrationError("malloc size must be positive")
        self._heap_init_if_needed()
        need = (n_bytes + 7) & ~7
        cursor = self.layout.heap_base
        end = self.layout.heap_base + self.layout.heap_bytes
        while cursor < end:
            size = self.load_u64(cursor)
            used = self.load_u64(cursor + 8)
            if not used and size >= need:
                remainder = size - need
                if remainder > 4 * self._HEAP_HDR:
                    # Split: write the new free block after this one.
                    self.store_u64(cursor, need)
                    next_block = cursor + self._HEAP_HDR + need
                    self.store_u64(next_block, remainder - self._HEAP_HDR)
                    self.store_u64(next_block + 8, 0)
                self.store_u64(cursor + 8, 1)
                return cursor + self._HEAP_HDR
            cursor += self._HEAP_HDR + size
        raise MigrationError(f"enclave heap exhausted allocating {n_bytes} bytes")

    def free(self, vaddr: int) -> None:
        """Release a block returned by :meth:`malloc`; coalesces forward."""
        block = vaddr - self._HEAP_HDR
        if not self.layout.heap_base <= block < self.layout.heap_base + self.layout.heap_bytes:
            raise MigrationError(f"free of non-heap address 0x{vaddr:x}")
        if self.load_u64(block + 8) != 1:
            raise MigrationError(f"double free at 0x{vaddr:x}")
        self.store_u64(block + 8, 0)
        # Coalesce with the next block while it is free.
        end = self.layout.heap_base + self.layout.heap_bytes
        size = self.load_u64(block)
        next_block = block + self._HEAP_HDR + size
        while next_block < end and self.load_u64(next_block + 8) == 0 and self.load_u64(next_block) > 0:
            size += self._HEAP_HDR + self.load_u64(next_block)
            next_block = block + self._HEAP_HDR + size
        self.store_u64(block, size)

    # ------------------------------------------------------------ ocalls
    # "we insert trampolines into an enclave, which enables the enclave
    # to call the outside functions without leaking any security
    # information; there are other trampolines in SGX library (outside
    # the enclave) for transferring the control flow into the enclave"
    # (§VI-C).  The handler table is installed by the untrusted library;
    # arguments and results cross through canonical bytes only, so the
    # trampoline cannot smuggle out live object references.
    def ocall(self, name: str, args: Any = None) -> Any:
        handler = getattr(self, "_ocall_table", {}).get(name)
        if handler is None:
            raise MigrationError(f"no ocall handler registered for {name!r}")
        from repro.serde import pack, unpack

        marshalled = pack(args)  # crosses the boundary as bytes
        result = handler(unpack(marshalled))
        return unpack(pack(result))

    def install_ocall_table(self, table: dict[str, Callable[[Any], Any]]) -> None:
        """Called by the SGX library when it opens a session."""
        self._ocall_table = dict(table)

    # ------------------------------------------------------------ durability
    def journal_record(
        self,
        kind: str,
        payload: dict | None = None,
        secret=None,
        defer_charge: bool = False,
        aad: bytes = b"journal",
    ) -> int:
        """Append one write-ahead record for this enclave's party.

        ``payload`` goes to the (untrusted) log in the clear — it must
        only carry public protocol state and ciphertext the adversary
        already sees.  ``secret`` is sealed under this enclave's EGETKEY
        sealing key first (MRENCLAVE policy: only a same-measurement
        enclave on this CPU can unseal it after a crash) and stored as
        ``payload["sealed"]``, bound to ``aad``.

        With ``defer_charge=True`` the modelled fsync cost is returned
        (instead of charged to the clock) so a cost-yielding caller can
        yield it — the commit then blocks only this thread, not every
        VCPU.  Returns 0 otherwise.
        """
        if secret is not None:
            payload = dict(payload or {})
            payload["sealed"] = self.journal_seal(secret, aad)
        self._journal.append(kind, payload, defer_charge=defer_charge)
        return self._journal.store.commit_cost_ns if defer_charge else 0

    def journal_blob(self, data: bytes) -> str:
        """Store ciphertext in the durable blob area; returns its digest.

        A record names the blob by this digest instead of carrying the
        bytes, so a multi-MB sealed envelope is written once, raw.  Put
        it *before* appending the record that names it.
        """
        return self._journal.store.put_blob(data)

    def journal_seal(self, value, aad: bytes = b"journal") -> bytes:
        """Seal a serde value for journal storage (crash-survivable).

        ``aad`` binds what the record is for (its role) without adding a
        byte to it: only :meth:`journal_unseal` with the same ``aad``
        opens it.
        """
        return seal_value(self._journal_seal_key(), value, self.random_bytes(16), aad)

    def journal_unseal(self, blob: bytes, aad: bytes = b"journal"):
        """Open a journal-sealed blob (same measurement, same CPU only)."""
        return open_value(self._journal_seal_key(), blob, aad)

    # ------------------------------------------------------------ one-use keys
    # Each K_migrate has a one-use token: a hardware monotonic counter
    # named from a hash of the key, moved by the control thread as the
    # key is released, cancelled or goes live (see repro.sdk.control).
    # Like the storage counters it costs no virtual time.

    def key_token(self, key: bytes) -> int:
        return self._journal.store.counter(_key_token_name(key))

    def advance_key_token(self, key: bytes, value: int) -> None:
        self._journal.store.counter_advance(_key_token_name(key), value)

    def _journal_seal_key(self):
        # Imported lazily: instructions/authenc import serde/keys, and a
        # module-level import here would cycle through the SDK package.
        from repro.crypto.keys import SymmetricKey
        from repro.sgx.instructions import egetkey

        return SymmetricKey(egetkey(self.session, "seal_mrenclave"), "journal-seal")

    # ------------------------------------------------------------ sealed storage
    # Migratable persistent state (the Alder et al. / CTR extension of
    # the paper): one namespace per enclave instance per host, holding a
    # single sealed key→value table.  The blob lives on untrusted disk
    # and is rewritten whole on every put; freshness comes from three
    # hardware monotonic counters — the committed table *version*, the
    # last imported *handoff* sequence, and the *retired* sequence set
    # when the namespace is handed off to another host.  Anything the
    # counters contradict is refused with a typed SealedStorageError.

    def storage_namespace(self) -> str:
        from repro.durability import wal

        return wal.storage_namespace(self._journal.party, self.image.name)

    def _storage_seal_key(self):
        from repro.crypto.keys import SymmetricKey
        from repro.sgx.instructions import egetkey

        return SymmetricKey(egetkey(self.session, "seal_mrenclave"), "storage-seal")

    def storage_check_live(self) -> str:
        """Refuse a namespace that was handed off; returns its name.

        A namespace is retired when its retired-counter has caught up
        with (or passed) its handoff-counter: the last thing that
        happened to it was an *outgoing* handoff.  A later import onto
        the same host advances the handoff counter past the tombstone
        and the namespace is live again (N-hop chains reuse hosts).
        """
        from repro.durability import wal

        ns = self.storage_namespace()
        store = self._journal.store
        retired = store.counter(wal.storage_retired_counter(ns))
        if retired and retired >= store.counter(wal.storage_handoff_counter(ns)):
            raise StorageRetired(
                f"storage namespace {ns!r} was handed off at sequence {retired}: "
                "a resumed source must not fork the counter lineage"
            )
        return ns

    def storage_table(self) -> tuple[dict, int]:
        """Load and freshness-check the sealed table → (entries, version)."""
        ns = self.storage_check_live()
        store = self._journal.store
        version = store.counter(ns)
        blob = bytes(store.log(ns)) if store.has_log(ns) else b""
        if not blob:
            if version:
                raise StorageRolledBack(
                    f"storage namespace {ns!r} is at version {version} but the "
                    "sealed table is gone: refusing the empty substitute"
                )
            return {}, 0
        payload = open_value(self._storage_seal_key(), blob, b"sealed-storage")
        blob_version = int(payload["version"])
        if blob_version < version:
            raise StorageRolledBack(
                f"storage namespace {ns!r}: sealed table is version {blob_version} "
                f"but the monotonic counter says {version} — a stale copy was "
                "restored; refusing to serve rolled-back state"
            )
        if blob_version > version + 1:
            raise StorageRolledBack(
                f"storage namespace {ns!r}: sealed table version {blob_version} is "
                f"ahead of the counter ({version}) by more than one commit"
            )
        if blob_version == version + 1:
            # Torn commit: the blob hit disk but the crash beat the
            # counter advance.  The blob carries this enclave's MAC, so
            # it is genuinely the newest state — finish the commit.
            store.counter_advance(ns, blob_version)
        return dict(payload["entries"]), blob_version

    def storage_commit(self, entries: dict, version: int) -> int:
        """Seal and write the table at ``version``, then commit it."""
        ns = self.storage_namespace()
        store = self._journal.store
        sealed = seal_value(
            self._storage_seal_key(),
            {"version": version, "entries": entries},
            self.random_bytes(16),
            b"sealed-storage",
        )
        store.set_log(ns, sealed)
        store.counter_advance(ns, version)
        return version

    def storage_put(self, key: str, value) -> int:
        """Set one entry; returns the new committed version."""
        entries, version = self.storage_table()
        entries[key] = value
        return self.storage_commit(entries, version + 1)

    def storage_get(self, key: str, default=None):
        entries, _version = self.storage_table()
        return entries.get(key, default)

    def storage_version(self) -> int:
        """The committed version counter (0 when the namespace is empty)."""
        return self._journal.store.counter(self.storage_namespace())

    # ------------------------------------------------------------ entropy
    def random_bytes(self, n: int) -> bytes:
        return self.rdrand.bytes(n)

    def fresh_dh_private_store(self, slot: str = OBJ_BOOT) -> None:
        """Generate and persist a DH private key inside the enclave."""
        self.store_obj(slot, {"dh_private": dh_private(self.rdrand)})


def _key_token_name(key: bytes) -> str:
    return "kmigrate/" + sha256(b"kmigrate-token" + key).hex()[:32]
