"""Stable storage: the one thing a machine crash does not erase.

A :class:`DurableStore` models the testbed's persistent media — each
party's journal file, a content-addressed blob area and a bank of
hardware monotonic counters.  The split matters for the threat model:

* the **byte logs** are ordinary untrusted disk: a crash can tear the
  tail of an append, and an adversary (or a lazy operator restoring an
  old backup) can truncate or substitute an earlier copy;
* the **blobs** are untrusted disk too.  Each is stored once, raw, under
  the SHA-256 of its bytes, and journal records name it by that digest.
  :meth:`DurableStore.blob` re-hashes on every read, so a lost or
  altered blob is refused as :class:`~repro.errors.JournalCorrupt`
  rather than handed to recovery;
* the **monotonic counters** model tamper-resistant hardware counters
  (TPM / CSME, the primitive Alder et al. build their rollback defense
  on): they only ever move forward and survive everything.

:class:`repro.durability.journal.Journal` commits a record by appending
the frame bytes *then* bumping the counter; replay cross-checks the two,
which is what turns "the journal looks shorter than it should be" into a
typed, refusable :class:`~repro.errors.JournalRolledBack`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.errors import JournalCorrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.sim.clock import VirtualClock
    from repro.sim.trace import EventTrace


class DurableStore:
    """Per-machine persistent storage: named byte logs, blobs, counters.

    A testbed's machines share one store.  Journal commits charge
    ``commit_cost_ns`` of modelled fsync time to ``clock``, report
    per-party commit latency and count to ``trace.metrics``, and emit
    payload-free ``("journal", "append")`` events on ``trace``, so the
    flight recorder's per-party rings see durable state transitions.
    """

    def __init__(self, clock: "VirtualClock", trace: "EventTrace", commit_cost_ns: int) -> None:
        self.clock = clock
        self.trace = trace
        self.commit_cost_ns = commit_cost_ns
        self._logs: dict[str, bytearray] = {}
        self._blobs: dict[str, bytes] = {}
        self._counters: dict[str, int] = {}
        #: ``name -> (counter, end offset)`` of each journal's last commit:
        #: an append whose log still ends there writes its frame without
        #: walking the headers (see :meth:`Journal.append`).
        self.journal_ends: dict[str, tuple[int, int]] = {}
        #: Optional fault injector; journal commits report record
        #: boundaries to it so crash plans can fire at record
        #: granularity (see :meth:`FaultInjector.record_appended`).
        self.injector: "FaultInjector | None" = None

    # ------------------------------------------------------------- byte logs
    def log(self, name: str) -> bytearray:
        """The (mutable) byte log under ``name``, created on first use."""
        return self._logs.setdefault(name, bytearray())

    def has_log(self, name: str) -> bool:
        return name in self._logs

    def set_log(self, name: str, data: bytes) -> None:
        """Replace the byte log under ``name`` wholesale.

        Journals only ever append; the sealed-storage namespaces rewrite
        their (sealed, versioned) table blob in place and rely on the
        namespace's monotonic counter — not the bytes — for freshness.
        """
        self._logs[name] = bytearray(data)
        self.journal_ends.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._logs)

    # ---------------------------------------------------------------- blobs
    def put_blob(self, data: bytes) -> str:
        """Store ``data`` once under its SHA-256 hex digest; returns it.

        Putting the same bytes again stores and copies nothing.  Callers
        put the blob *before* appending the record that names it, so a
        crash between the two leaves an orphan blob, never a dangling
        record.
        """
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._blobs:
            self._blobs[digest] = bytes(data)
        return digest

    def __contains__(self, digest: str) -> bool:
        """``digest in store``: is a blob stored under it (not re-hashed)?"""
        return digest in self._blobs

    def blob(self, digest: str) -> bytes:
        """The blob stored under ``digest``, re-hashed on read.

        Raises :class:`JournalCorrupt` when the blob is missing or its
        bytes no longer hash to ``digest``.
        """
        data = self._blobs.get(digest)
        if data is None:
            raise JournalCorrupt(f"blob {digest[:16]} is missing from the store")
        if hashlib.sha256(data).hexdigest() != digest:
            raise JournalCorrupt(f"blob {digest[:16]} does not match its digest")
        return data

    def digests(self) -> list[str]:
        return sorted(self._blobs)

    # ------------------------------------------------------------- counters
    def counter(self, name: str) -> int:
        """Current value of the hardware monotonic counter for ``name``."""
        return self._counters.get(name, 0)

    def counter_bump(self, name: str) -> int:
        """Advance the monotonic counter; returns the new value."""
        value = self._counters.get(name, 0) + 1
        self._counters[name] = value
        return value

    def counter_advance(self, name: str, value: int) -> int:
        """Advance the counter to ``value`` (monotonic; never moves back).

        Hardware counters cannot be wound down, so an advance below the
        current value is simply a no-op — callers that need "this would
        have gone backwards" to be an error must compare first.  Returns
        the counter's (possibly unchanged) value.
        """
        current = self._counters.get(name, 0)
        if value > current:
            self._counters[name] = value
            return value
        return current
