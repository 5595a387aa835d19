"""The untrusted network.

Every byte of the migration protocol crosses this object, which charges
transfer time to the virtual clock, counts traffic for the experiments,
and lets tests install *taps*: adversary hooks that can observe, record,
tamper with, or replace messages in flight.  The security tests all work
this way — the protocol must survive an attacker who owns the wire.

Each transfer is additionally stamped with a
:class:`~repro.telemetry.causal.WireContext` — the run's trace id, the
span that was active at send time, and a global wire sequence number —
so the telemetry layer can assemble spans and transfers into one causal
DAG spanning all parties (see :mod:`repro.telemetry.causal`).  Dropped,
duplicated, and reordered messages keep their records, with status and
linkage fields that turn injected faults into visible graph edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import EventTrace
from repro.telemetry.causal import WireContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: A tap receives (label, payload) and returns the payload to deliver
#: (possibly modified) — or None to deliver the original unchanged.
NetworkTap = Callable[[str, bytes], bytes | None]


@dataclass
class TransferRecord:
    """One message's life on the wire, causal context included."""

    label: str
    n_bytes: int
    payload: bytes
    #: Trace context stamped at send time.
    ctx: WireContext
    #: Global wire sequence number (unique per network, never reused).
    seq: int = 0
    wan: bool = False
    #: When the bytes entered the wire (before serialization time).
    t_send_ns: int = 0
    #: When delivery completed or the loss was established.
    t_done_ns: int | None = None
    status: str = "sent"  #: sent | delivered | lost
    #: Set on the extra record of an injected duplicate delivery.
    duplicate: bool = False
    #: The original record's seq when this one is its duplicate.
    duplicate_of: int | None = None
    #: Flagged by the causal layer when a stream reorder swapped this
    #: record out of its send position.
    reordered: bool = False
    #: The span that observed the delivery (the receiving party's
    #: activity adopting the context); None for lost transfers.
    recv_span_id: int | None = None

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"


class Network:
    """Point-to-point links between the testbed's parties."""

    def __init__(self, clock: VirtualClock, costs: CostModel, trace: EventTrace) -> None:
        self.clock = clock
        self.costs = costs
        self.trace = trace
        self._taps: list[NetworkTap] = []
        self.log: list[TransferRecord] = []
        self.bytes_transferred = 0
        self._seq = 0
        #: The record currently in flight (set around injector.deliver)
        #: so an injected duplicate can link back to its original.
        self._sending: TransferRecord | None = None
        #: Optional fault injector (see :mod:`repro.faults`): unlike taps,
        #: it can refuse delivery (drop/partition), duplicate wire records
        #: and charge extra virtual time — infrastructure misbehaviour
        #: rather than silent adversarial rewriting.
        self.injector: "FaultInjector | None" = None

    def add_tap(self, tap: NetworkTap) -> None:
        """Install an adversary/observer hook on every transfer."""
        self._taps.append(tap)

    def clear_taps(self) -> None:
        self._taps.clear()

    def transfer(self, label: str, payload: bytes, wan: bool = False) -> bytes:
        """Move bytes between parties; returns what actually arrives.

        ``wan=True`` models the wide-area paths (owner, IAS); otherwise
        the machine-to-machine migration link.

        With a fault injector installed the call may instead raise
        :class:`~repro.errors.LinkPartitioned` (link is down; nothing
        entered the wire — no record is logged) or
        :class:`~repro.errors.LinkTimeout` (the message entered the wire
        and was lost; its record stays in the log with ``status="lost"``
        and the sender waited out the acknowledgement window on the
        virtual clock).
        """
        if self.injector is not None:
            self.injector.link_check(label)
        if not isinstance(payload, bytes):
            # Accept bytes-like senders (memoryview/bytearray framing);
            # materialize once here so taps and the log see stable bytes.
            payload = bytes(payload)
        n = len(payload)
        record = self._stamp(label, n, payload, wan)
        if wan:
            self.clock.advance(self.costs.wan_round_trip_ns() // 2 + self.costs.net_transfer_ns(n))
        else:
            self.clock.advance(self.costs.net_transfer_ns(n))
        self.bytes_transferred += n
        self.log.append(record)
        self.trace.emit("net", "transfer", label=label, bytes=n, seq=record.seq)
        self._meter(label, n, wan)
        delivered = payload
        for tap in self._taps:
            replacement = tap(label, delivered)
            if replacement is not None:
                delivered = replacement
        self._sending = record
        try:
            if self.injector is not None:
                delivered = self.injector.deliver(label, delivered, self)
        except BaseException:
            record.status = "lost"
            record.t_done_ns = self.clock.now_ns
            raise
        finally:
            self._sending = None
        self._complete_delivery(record)
        return delivered

    def record_duplicate(self, label: str, payload: bytes) -> None:
        """Account a duplicated delivery: the wire carried it twice.

        The extra record shares the original's trace context and links
        back to it via ``duplicate_of``, so the causal DAG renders the
        fault as a duplicate edge instead of a second anonymous send.
        """
        n = len(payload)
        original = self._sending
        record = self._stamp(label, n, payload, wan=False)
        record.duplicate = True
        if original is not None:
            record.ctx = original.ctx
            record.duplicate_of = original.seq
        self.clock.advance(self.costs.net_transfer_ns(n))
        self.bytes_transferred += n
        self.log.append(record)
        self.trace.emit(
            "net", "transfer", label=label, bytes=n, seq=record.seq, duplicate=True
        )
        self._meter(label, n, wan=False)
        self._complete_delivery(record)

    # ------------------------------------------------------------- causality
    def _stamp(self, label: str, n: int, payload: bytes, wan: bool) -> TransferRecord:
        """New wire record carrying the active span's trace context."""
        self._seq += 1
        tracer = self.trace.tracer
        active = tracer.active()
        return TransferRecord(
            label,
            n,
            payload,
            seq=self._seq,
            ctx=WireContext(
                trace_id=tracer.trace_id,
                parent_span_id=active.span_id if active is not None else None,
                seq=self._seq,
            ),
            wan=wan,
            t_send_ns=self.clock.now_ns,
        )

    def _complete_delivery(self, record: TransferRecord) -> None:
        record.status = "delivered"
        record.t_done_ns = self.clock.now_ns
        active = self.trace.tracer.active()
        if active is not None:
            # The receiving party's activity adopts the wire context:
            # the innermost open span at delivery time is the one
            # whose duration contains the arrival.
            record.recv_span_id = active.span_id
            active.attrs.setdefault("adopted_wire_seqs", []).append(record.seq)
        self.trace.emit("net", "deliver", label=record.label, seq=record.seq)

    def _meter(self, label: str, n_bytes: int, wan: bool) -> None:
        metrics = self.trace.metrics
        metrics.counter("wire.bytes", channel=label).inc(n_bytes)
        metrics.counter("wire.messages_total", channel=label).inc()
        if wan:
            metrics.counter("wire.wan_round_trips_total").inc()

    def captured(self, label: str) -> list[bytes]:
        """All payloads ever sent under ``label`` (the adversary's log)."""
        return [record.payload for record in self.log if record.label == label]
