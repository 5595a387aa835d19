"""Interpreting a :class:`FaultPlan` against a live testbed.

The injector sits on the seams the seed codebase already has — the
:class:`~repro.net.network.Network` (which every protocol byte crosses)
and the orchestrator's per-step hooks — and turns plan entries into
concrete misbehaviour: raised :class:`~repro.errors.LinkTimeout` /
:class:`~repro.errors.LinkPartitioned`, mutated payloads, extra clock
charges, duplicated wire records, and :class:`~repro.errors.MachineCrash`
at step boundaries.

Everything is deterministic: corruption offsets come from a
:class:`~repro.sim.rng.DeterministicRng` forked from the plan seed, and
every fault fires exactly once.  Each injected event is mirrored into the
event trace under category ``"fault"`` so experiments can correlate
degraded-mode overhead with exactly what the infrastructure did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import LinkPartitioned, LinkTimeout, MachineCrash, PartyCrash
from repro.faults.plan import (
    KIND_CORRUPT,
    KIND_DELAY,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_REORDER,
    FaultPlan,
    MessageFault,
)
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.migration.testbed import Testbed
    from repro.net.network import Network

#: Wait-for-an-ack-that-never-comes charge on a dropped message.
DROP_TIMEOUT_NS = 10_000_000
#: A reorder on a lockstep (request/response) label cannot change what
#: arrives, only when: it degrades to one extra round trip.
REORDER_DELAY_NS = 1_000_000


class FaultInjector:
    """Binds one :class:`FaultPlan` to one testbed's network and clock."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = DeterministicRng(plan.seed).fork("fault-injector")
        self._delivery_seq: dict[str, int] = {}
        self._attempt_seq: dict[str, int] = {}
        self._tb: "Testbed | None" = None

    # ------------------------------------------------------------- wiring
    def attach(self, testbed: "Testbed") -> "FaultInjector":
        """Install this injector on the testbed's network and journals."""
        self._tb = testbed
        testbed.network.injector = self
        testbed.durable.injector = self
        return self

    def detach(self) -> None:
        if self._tb is not None:
            self._tb.network.injector = None
            if self._tb.durable.injector is self:
                self._tb.durable.injector = None
            self._tb = None

    @property
    def _clock(self):
        return self._tb.clock

    @property
    def _trace(self):
        return self._tb.trace

    # ------------------------------------------------------------- network hooks
    def link_check(self, label: str) -> None:
        """Called before a transfer enters the wire; models partitions."""
        now = self._clock.now_ns
        self._attempt_seq[label] = self._attempt_seq.get(label, 0) + 1
        for fault in self.plan.partition_faults:
            if fault.started_at_ns is None:
                matches = fault.label is None or fault.label == label
                if matches and self._attempt_seq[label] >= fault.nth:
                    fault.started_at_ns = now
                    self._trace.emit(
                        "fault", "partition_start",
                        label=label, duration_ns=fault.duration_ns,
                    )
            if fault.started_at_ns is not None:
                heals_at = fault.started_at_ns + fault.duration_ns
                if now < heals_at:
                    self._trace.emit("fault", "partition_blocked", label=label)
                    raise LinkPartitioned(
                        f"link partitioned ({label!r} blocked for another "
                        f"{(heals_at - now) / 1e6:.1f} ms)",
                        heals_at_ns=heals_at,
                    )

    def deliver(self, label: str, payload: bytes, network: "Network") -> bytes:
        """Called after wire accounting; applies message-level faults."""
        seq = self._delivery_seq.get(label, 0) + 1
        self._delivery_seq[label] = seq
        # The wire record under delivery is the last one logged; its
        # global sequence number ties each fault event to the exact wire
        # node the causal DAG builds from the record.
        record = network.log[-1]
        delivered = payload
        for fault in self._matching(label, seq):
            fault.spent = True
            if fault.kind == KIND_DROP:
                self._trace.emit("fault", "drop", label=label, nth=seq, wire_seq=record.seq)
                self._clock.advance(DROP_TIMEOUT_NS)
                raise LinkTimeout(f"message {label!r} #{seq} was dropped on the wire")
            if fault.kind == KIND_DUPLICATE:
                # The wire carried the bytes twice; the receiver sees two
                # identical deliveries (the resumable transfer must treat
                # the second as a no-op).
                network.record_duplicate(record, len(delivered))
                self._trace.emit(
                    "fault", "duplicate", label=label, nth=seq, wire_seq=record.seq
                )
            elif fault.kind == KIND_CORRUPT:
                delivered = self._corrupt(delivered)
                self._trace.emit(
                    "fault", "corrupt", label=label, nth=seq, wire_seq=record.seq
                )
            elif fault.kind == KIND_DELAY:
                self._clock.advance(fault.delay_ns)
                self._trace.emit(
                    "fault",
                    "delay",
                    label=label,
                    nth=seq,
                    delay_ns=fault.delay_ns,
                    wire_seq=record.seq,
                )
            elif fault.kind == KIND_REORDER:
                # Stream reorders are applied by chunk_send_order(); one
                # that survives to delivery is on a lockstep label.
                self._clock.advance(REORDER_DELAY_NS)
                self._trace.emit(
                    "fault", "reorder_as_delay", label=label, nth=seq, wire_seq=record.seq
                )
        return delivered

    def _matching(self, label: str, seq: int) -> list[MessageFault]:
        return [
            f
            for f in self.plan.message_faults
            if not f.spent and f.label == label and f.nth == seq
        ]

    def _corrupt(self, payload: bytes) -> bytes:
        if not payload:
            return payload
        mutated = bytearray(payload)
        index = self._rng.randint(0, len(mutated) - 1)
        mask = 1 << self._rng.randint(0, 7)
        mutated[index] ^= mask
        return bytes(mutated)

    # ------------------------------------------------------------- stream hooks
    def chunk_send_order(self, label: str, n_messages: int) -> list[int]:
        """Consume reorder faults for a message stream under one label.

        Returns the permutation of ``range(n_messages)`` the sender should
        use, swapping the N-th and (N+1)-th entries for each matching
        reorder fault — the wire genuinely carries the stream out of
        order, and the receiver's reassembler has to cope.
        """
        order = list(range(n_messages))
        for fault in self.plan.message_faults:
            if fault.spent or fault.kind != KIND_REORDER or fault.label != label:
                continue
            if fault.nth <= n_messages - 1:
                i = fault.nth - 1
                order[i], order[i + 1] = order[i + 1], order[i]
                fault.spent = True
                self._trace.emit("fault", "reorder", label=label, nth=fault.nth)
        return order

    # ------------------------------------------------------------- step hooks
    def step_started(self, step: str) -> None:
        """Orchestrator hook: raises MachineCrash if the plan says so."""
        for fault in self.plan.crash_faults:
            if not fault.spent and fault.step == step:
                fault.spent = True
                self._trace.emit("fault", "crash", side=fault.side, step=step)
                raise MachineCrash(fault.side, step)

    # ------------------------------------------------------------- journal hooks
    def record_appended(self, party: str, journal: str, counter: int) -> None:
        """Journal hook: crash ``party`` right after a record commits.

        Fires *after* the monotonic-counter bump, so the committed record
        always survives the crash — the sweep visits the window between
        each pair of adjacent commits.
        """
        if self._tb is None:
            return
        for fault in self.plan.record_crash_faults:
            if not fault.spent and fault.party == party and fault.at_record == counter:
                fault.spent = True
                self._trace.emit(
                    "fault", "party_crash", party=party, journal=journal, record=counter
                )
                raise PartyCrash(party, counter, journal)
