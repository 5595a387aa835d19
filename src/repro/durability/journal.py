"""Append-only, CRC-framed, counter-stamped write-ahead journal.

Each migration party keeps one journal per protocol run and appends a
record at every state transition.  A record commits in two moves:

1. the CRC-framed record bytes are appended to the party's byte log on
   the :class:`~repro.durability.store.DurableStore` (untrusted disk);
2. the party's hardware monotonic counter is bumped — *this* is the
   commit point.

On replay the counter is the ground truth the disk has to agree with:

* a frame whose counter is exactly one past the hardware counter is a
  **torn tail** — the crash hit between the append and the bump — and is
  silently dropped (the record never committed);
* a journal whose last committed counter is *below* the hardware counter
  has been truncated or substituted with an earlier copy and is refused
  with :class:`~repro.errors.JournalRolledBack` (the Alder-et-al.
  monotonic-counter rollback defense);
* a frame that fails its CRC, or counters that are not a gapless
  ascending run from 1, mean the log bytes themselves are damaged:
  :class:`~repro.errors.JournalCorrupt`.

Because the torn tail never committed, the next append first drops it:
the new frame goes right behind the last committed one.  The store
remembers where each journal's last commit ended, so an append walks the
frame headers only when the log's length disagrees with that end.

Record payloads are the restricted :mod:`repro.serde` value universe.
Large ciphertext — a sealed checkpoint envelope — is not a payload: it
is stored once in the store's content-addressed blob area
(:meth:`~repro.durability.store.DurableStore.put_blob`), and the record
carries only its SHA-256 digest, which the reader resolves (and
verifies) through :meth:`~repro.durability.store.DurableStore.blob`.
Secrets never appear in a payload in the clear — parties that journal
secret material (K_migrate, escrow entries) seal it into an
:class:`~repro.crypto.authenc.Envelope` under an enclave sealing key
*before* appending, and store only the envelope bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro import serde
from repro.durability.store import DurableStore
from repro.errors import JournalCorrupt, JournalRolledBack

_FRAME_HEADER = struct.Struct("<II")  # body length, crc32(body)


@dataclass(frozen=True)
class JournalRecord:
    """One committed journal record."""

    counter: int
    kind: str
    payload: Any

    def __repr__(self) -> str:  # keep payloads out of assertion output
        return f"<JournalRecord #{self.counter} {self.kind!r}>"


class Journal:
    """A named append-only journal owned by one migration party."""

    def __init__(self, store: DurableStore, name: str, party: str) -> None:
        self.store = store
        self.name = name
        #: Which protocol party writes this journal ("source", "target",
        #: "agent", "orchestrator") — used to address record-granularity
        #: crash faults.
        self.party = party

    # ----------------------------------------------------------------- write
    def append(self, kind: str, payload: Any = None, defer_charge: bool = False) -> int:
        """Commit one record; returns its counter value.

        The record is durable the moment the monotonic counter is bumped.
        If a crash fault is planned for this party at this record index,
        it fires *after* the commit — "crash at record boundary" always
        means the record itself survived.

        Every commit charges the store's modelled fsync cost to the
        virtual clock and reports ``journal.commit_latency_ns`` /
        ``journal.appends_total`` per party — journal commits sit on the
        migration hot path, so their cost must show up in the figures.

        ``defer_charge=True`` skips the clock charge: an fsync blocks
        only the committing thread, so a cost-yielding caller (the
        control thread's checkpoint generator) yields the commit cost to
        the scheduler instead, letting other VCPUs keep running through
        the I/O wait rather than modelling it as a stop-the-world stall.
        """
        store = self.store
        start_ns = store.clock.now_ns
        counter = store.counter(self.name) + 1
        body = serde.pack({"c": counter, "k": kind, "p": payload})
        log = store.log(self.name)
        if store.journal_ends.get(self.name) == (counter - 1, len(log)):
            end = len(log)
        else:
            end = self._committed_end(log, counter - 1)
        if end is not None:
            # Bytes past the last committed frame are a torn append that
            # never committed; writing behind them would bury this frame.
            del log[end:]
        # Header and body go onto the log one after the other: a body
        # can be large, and ``header + body`` would copy it.
        log.extend(_FRAME_HEADER.pack(len(body), zlib.crc32(body)))
        log.extend(body)
        trace = store.trace
        if not defer_charge and store.commit_cost_ns:
            # The synchronous fsync stall gets its own span so the
            # critical-path engine (and `repro diff`) can blame journal
            # commits directly instead of smearing them over the
            # enclosing protocol step.  Deferred charges are yielded to
            # the scheduler and attributed to whatever runs meanwhile.
            with trace.tracer.span(
                "journal.commit",
                party=self.party,
                journal=self.name,
                record_kind=kind,
            ):
                store.clock.advance(store.commit_cost_ns)
        store.counter_bump(self.name)
        store.journal_ends[self.name] = (counter, len(log))
        # Payload-free by construction: journal payloads may hold sealed
        # blobs, and nothing sealed ever enters the trace.
        trace.emit(
            "journal",
            "append",
            journal=self.name,
            party=self.party,
            kind=kind,
            counter=counter,
            n_bytes=_FRAME_HEADER.size + len(body),
        )
        trace.metrics.counter("journal.appends_total", party=self.party).inc()
        elapsed = store.clock.now_ns - start_ns
        if defer_charge:
            # The caller yields the commit cost to the scheduler; record
            # the modelled latency it will experience.
            elapsed += store.commit_cost_ns
        trace.metrics.histogram("journal.commit_latency_ns", party=self.party).observe(elapsed)
        if store.injector is not None:
            store.injector.record_appended(self.party, self.name, counter)
        return counter

    @staticmethod
    def _committed_end(log: bytearray, committed: int) -> int | None:
        """Offset just past frame #``committed``, walking headers only.

        ``None`` when the log holds fewer frames than that: a truncated
        log is left as it is, so replay still refuses it.
        """
        offset = 0
        for _ in range(committed):
            if offset + _FRAME_HEADER.size > len(log):
                return None
            length, _crc = _FRAME_HEADER.unpack_from(log, offset)
            offset += _FRAME_HEADER.size + length
        return offset if offset <= len(log) else None

    # ------------------------------------------------------------------ read
    def records(self) -> list[JournalRecord]:
        """Replay the journal, validating frames against the counter.

        Raises :class:`JournalCorrupt` or :class:`JournalRolledBack`;
        see the module docstring for the exact rules.
        """
        raw = bytes(self.store.log(self.name))
        hw_counter = self.store.counter(self.name)
        records: list[JournalRecord] = []
        offset = 0
        while offset < len(raw):
            if offset + _FRAME_HEADER.size > len(raw):
                # Trailing partial header: a torn append, never committed.
                break
            length, crc = _FRAME_HEADER.unpack_from(raw, offset)
            body = raw[offset + _FRAME_HEADER.size : offset + _FRAME_HEADER.size + length]
            if len(body) < length:
                break  # torn tail: body cut short mid-append
            if zlib.crc32(body) != crc:
                raise JournalCorrupt(
                    f"journal {self.name!r}: CRC mismatch in frame at offset {offset}"
                )
            try:
                decoded = serde.unpack(body)
                counter, kind, payload = decoded["c"], decoded["k"], decoded["p"]
            except (serde.SerdeError, KeyError, TypeError) as exc:
                raise JournalCorrupt(
                    f"journal {self.name!r}: malformed record at offset {offset}: {exc}"
                ) from exc
            if counter != len(records) + 1:
                raise JournalCorrupt(
                    f"journal {self.name!r}: counter {counter} out of sequence "
                    f"(expected {len(records) + 1})"
                )
            if counter == hw_counter + 1:
                # Frame written but counter never bumped: drop the tail.
                break
            if counter > hw_counter + 1:
                raise JournalCorrupt(
                    f"journal {self.name!r}: record #{counter} is beyond the "
                    f"hardware counter ({hw_counter}) by more than one"
                )
            records.append(JournalRecord(counter, kind, payload))
            offset += _FRAME_HEADER.size + length
        if len(records) < hw_counter:
            raise JournalRolledBack(
                f"journal {self.name!r} holds {len(records)} committed records but the "
                f"hardware monotonic counter says {hw_counter}: the log was truncated "
                f"or rolled back to an earlier copy — refusing to recover from it"
            )
        return records

    # --------------------------------------------------------------- queries
    def last(self, *kinds: str) -> JournalRecord | None:
        """The most recent record whose kind is in ``kinds`` (any, if empty)."""
        found = None
        for record in self.records():
            if not kinds or record.kind in kinds:
                found = record
        return found

    def find(self, kind: str) -> list[JournalRecord]:
        return [r for r in self.records() if r.kind == kind]

    def has(self, kind: str) -> bool:
        return any(r.kind == kind for r in self.records())

    def kinds(self) -> list[str]:
        return [r.kind for r in self.records()]

    def __len__(self) -> int:
        return len(self.records())

