"""The untrusted network.

Every byte of the migration protocol crosses this object, which charges
transfer time to the virtual clock, counts traffic for the experiments,
and lets attack code install *taps*: adversary hooks that can observe,
record, tamper with, or replace messages in flight.  The security tests
all work this way — the protocol must survive an attacker who owns the
wire.  Recording payloads is the adversary's job
(:class:`repro.attacks.wiretap.Wiretap`); the log keeps each transfer's
metadata and causal context — the run's trace id, the sending and
receiving spans, a global wire sequence number — from which the
telemetry layer assembles one causal DAG spanning all parties (see
:mod:`repro.telemetry.causal`).  Dropped and duplicated messages keep
their records, with status and linkage fields that turn injected faults
into visible graph edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: A tap receives (label, payload) and returns the payload to deliver
#: (possibly modified) — or None to deliver the original unchanged.
NetworkTap = Callable[[str, bytes], bytes | None]


@dataclass
class TransferRecord:
    """One message's life on the wire: metadata and causal context, no bytes."""

    label: str
    n_bytes: int
    #: Global wire sequence number (unique per network, never reused).
    seq: int
    #: The migration run's trace id (``mig-<run span id>``), or None when
    #: the transfer happened outside any instrumented run.
    trace_id: str | None
    #: The span that was active (innermost open) when the bytes entered
    #: the wire — the transfer's causal parent.
    parent_span_id: int | None
    wan: bool = False
    #: When the bytes entered the wire (before serialization time).
    t_send_ns: int = 0
    #: When delivery completed or the loss was established.
    t_done_ns: int | None = None
    status: str = "sent"  #: sent | delivered | lost
    #: The original record's seq when this one is an injected duplicate
    #: delivery (which shares the original's trace context).
    duplicate_of: int | None = None
    #: The span that observed the delivery (the receiving party's
    #: activity adopting the context); None for lost transfers.
    recv_span_id: int | None = None

    @property
    def duplicate(self) -> bool:
        return self.duplicate_of is not None


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
        #: Optional fault injector (see :mod:`repro.faults`): unlike taps,
        #: it can refuse delivery (drop/partition), duplicate wire records
        #: and charge extra virtual time — infrastructure misbehaviour
        #: rather than silent adversarial rewriting.
        self.injector: "FaultInjector | None" = None

    def add_tap(self, tap: NetworkTap) -> None:
        """Install an adversary/observer hook on every transfer.

        Taps run in installation order, each seeing what the one before
        it delivered; an injected duplicate reaches no tap.
        """
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
            # materialize once here so taps and receivers see stable bytes.
            payload = bytes(payload)
        record = self._send(label, len(payload), wan)
        delivered = payload
        for tap in self._taps:
            replacement = tap(label, delivered)
            if replacement is not None:
                delivered = replacement
        try:
            if self.injector is not None:
                delivered = self.injector.deliver(label, delivered, self)
        except BaseException:
            record.status = "lost"
            record.t_done_ns = self.clock.now_ns
            raise
        self._complete_delivery(record)
        return delivered

    def record_duplicate(self, original: TransferRecord, n: int) -> None:
        """Account a duplicated delivery of ``n`` bytes: the wire carried
        the message of ``original`` twice.

        The extra record shares the original's trace context and links
        back to it via ``duplicate_of``, so the causal DAG renders the
        fault as a duplicate edge instead of a second anonymous send.
        """
        record = self._send(original.label, n, wan=False, duplicate=True)
        record.trace_id = original.trace_id
        record.parent_span_id = original.parent_span_id
        record.duplicate_of = original.seq
        self._complete_delivery(record)

    # ------------------------------------------------------------- causality
    def _send(self, label: str, n: int, wan: bool, **event) -> TransferRecord:
        """Log a new wire record carrying the active span's trace context;
        charge, count and trace its ``n`` bytes."""
        self._seq += 1
        tracer = self.trace.tracer
        active = tracer.active()
        record = TransferRecord(
            label,
            n,
            seq=self._seq,
            trace_id=tracer.trace_id,
            parent_span_id=active.span_id if active is not None else None,
            wan=wan,
            t_send_ns=self.clock.now_ns,
        )
        wire_ns = self.costs.net_transfer_ns(n)
        self.clock.advance(self.costs.wan_round_trip_ns() // 2 + wire_ns if wan else wire_ns)
        self.bytes_transferred += n
        self.log.append(record)
        self.trace.emit("net", "transfer", label=label, bytes=n, seq=record.seq, **event)
        metrics = self.trace.metrics
        metrics.counter("wire.bytes", channel=label).inc(n)
        metrics.counter("wire.messages_total", channel=label).inc()
        if wan:
            metrics.counter("wire.wan_round_trips_total").inc()
        return record

    def _complete_delivery(self, record: TransferRecord) -> None:
        record.status = "delivered"
        record.t_done_ns = self.clock.now_ns
        active = self.trace.tracer.active()
        if active is not None:
            # The receiving party's activity adopts the wire context:
            # the innermost open span at delivery time is the one
            # whose duration contains the arrival.
            record.recv_span_id = active.span_id
        self.trace.emit("net", "deliver", label=record.label, seq=record.seq)
