"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a declarative description of everything the
infrastructure will do wrong during one migration: drop / duplicate /
reorder / corrupt / delay the N-th message of a label, crash the source
or target machine as a protocol step begins, or sever the link for a
window of virtual time.  The plan is pure data — interpretation happens
in :mod:`repro.faults.injector` — so the same plan replayed against the
same seed produces byte-identical behaviour, which is what lets the
adversarial test matrix assert exact outcomes.

The paper's threat model (§V) already grants the adversary the wire;
this module grants it *timing*: the ability to fail the migration at any
step.  The protocol's obligation is unchanged — abort is acceptable,
leak / fork / rollback are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Crash points name protocol steps (the rows of the protocol table) and
# journal-writing parties; both are re-exported from here.
from repro.durability.wal import MIGRATION_PARTIES
from repro.migration.protocol import (
    PROTOCOL_STEPS,
    STEP_BUILD_TARGET,
    STEP_CHECKPOINT,
    STEP_ESTABLISH_CHANNEL,
    STEP_HANDOFF_KEY,
    STEP_HANDOFF_STORAGE,
    STEP_RESTORE,
    STEP_TRANSFER_CHECKPOINT,
)

#: Message-fault kinds understood by the injector.
KIND_DROP = "drop"
KIND_DUPLICATE = "duplicate"
KIND_REORDER = "reorder"
KIND_CORRUPT = "corrupt"
KIND_DELAY = "delay"

MESSAGE_FAULT_KINDS = (KIND_DROP, KIND_DUPLICATE, KIND_REORDER, KIND_CORRUPT, KIND_DELAY)


@dataclass
class MessageFault:
    """One fault applied to the N-th transfer carrying ``label``.

    ``nth`` is 1-based over the transfers of that label only.  Each fault
    fires exactly once; ``spent`` tracks consumption so a retried
    protocol does not re-suffer the same fault (the model is a transient
    infrastructure glitch, not a deterministic filter).
    """

    kind: str
    label: str
    nth: int = 1
    #: For ``delay``: extra virtual time charged before delivery.
    delay_ns: int = 5_000_000
    spent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise ValueError(f"unknown message-fault kind {self.kind!r}")
        if self.nth < 1:
            raise ValueError("nth is 1-based")


@dataclass
class CrashFault:
    """Crash ``side`` ("source" or "target") as protocol step begins."""

    side: str
    step: str
    spent: bool = False

    def __post_init__(self) -> None:
        if self.side not in ("source", "target"):
            raise ValueError(f"crash side must be source/target, got {self.side!r}")
        if self.step not in PROTOCOL_STEPS:
            raise ValueError(f"unknown protocol step {self.step!r}")


@dataclass
class RecordCrashFault:
    """Crash ``party`` right after it commits journal record ``at_record``.

    This is the record-granularity refinement of :class:`CrashFault`: the
    crash point is a *durability* boundary, not a protocol step, so a
    sweep over ``at_record`` visits every window between two committed
    records.  The record itself always survives (the injector fires after
    the monotonic-counter bump), which is exactly the contract recovery
    relies on.
    """

    party: str
    at_record: int
    spent: bool = False

    def __post_init__(self) -> None:
        if self.party not in MIGRATION_PARTIES:
            raise ValueError(
                f"crash party must be one of {MIGRATION_PARTIES}, got {self.party!r}"
            )
        if self.at_record < 1:
            raise ValueError("at_record is 1-based")


@dataclass
class PartitionFault:
    """Sever the link for ``duration_ns`` of virtual time.

    The partition begins when the ``nth`` transfer matching ``label``
    (any label when ``None``) is *attempted*; that transfer and every
    later one fail with :class:`~repro.errors.LinkPartitioned` until the
    virtual clock passes the healing time.
    """

    duration_ns: int
    label: str | None = None
    nth: int = 1
    started_at_ns: int | None = None

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise ValueError("partition duration must be positive")
        if self.nth < 1:
            raise ValueError("nth is 1-based")


@dataclass
class FaultPlan:
    """A deterministic schedule of infrastructure faults.

    Build one with the fluent helpers::

        plan = (FaultPlan(seed=7)
                .drop("kmigrate")
                .corrupt("checkpoint-chunk", nth=3)
                .crash("target", STEP_RESTORE))

    and hand it to a :class:`~repro.faults.injector.FaultInjector`.
    """

    seed: int | str = 0
    message_faults: list[MessageFault] = field(default_factory=list)
    crash_faults: list[CrashFault] = field(default_factory=list)
    partition_faults: list[PartitionFault] = field(default_factory=list)
    record_crash_faults: list[RecordCrashFault] = field(default_factory=list)

    # ------------------------------------------------------------- builders
    def drop(self, label: str, nth: int = 1) -> "FaultPlan":
        self.message_faults.append(MessageFault(KIND_DROP, label, nth))
        return self

    def duplicate(self, label: str, nth: int = 1) -> "FaultPlan":
        self.message_faults.append(MessageFault(KIND_DUPLICATE, label, nth))
        return self

    def reorder(self, label: str, nth: int = 1) -> "FaultPlan":
        """Swap the N-th and (N+1)-th messages of ``label`` on the wire.

        Only a stream of messages under one label (the chunked checkpoint
        transfer) has an observable order; for lockstep request/response
        labels a reorder degrades to a delay of one round trip.
        """
        self.message_faults.append(MessageFault(KIND_REORDER, label, nth))
        return self

    def corrupt(self, label: str, nth: int = 1) -> "FaultPlan":
        self.message_faults.append(MessageFault(KIND_CORRUPT, label, nth))
        return self

    def delay(self, label: str, nth: int = 1, delay_ns: int = 5_000_000) -> "FaultPlan":
        self.message_faults.append(MessageFault(KIND_DELAY, label, nth, delay_ns=delay_ns))
        return self

    def crash(self, side: str, step: str) -> "FaultPlan":
        self.crash_faults.append(CrashFault(side, step))
        return self

    def crash_at_record(self, party: str, at_record: int) -> "FaultPlan":
        self.record_crash_faults.append(RecordCrashFault(party, at_record))
        return self

    def partition(
        self, duration_ns: int, label: str | None = None, nth: int = 1
    ) -> "FaultPlan":
        self.partition_faults.append(PartitionFault(duration_ns, label, nth))
        return self

    # ------------------------------------------------------------- queries
    def describe(self) -> str:
        """Human-readable one-liner (CLI output and trace payloads)."""
        parts = [f"{f.kind}:{f.label}:{f.nth}" for f in self.message_faults]
        parts += [f"crash:{f.side}:{f.step}" for f in self.crash_faults]
        parts += [
            f"partition:{f.label or '*'}:{f.nth}:{f.duration_ns}ns"
            for f in self.partition_faults
        ]
        parts += [
            f"crash-record:{f.party}:{f.at_record}" for f in self.record_crash_faults
        ]
        return ",".join(parts) if parts else "none"

    @property
    def empty(self) -> bool:
        return not (
            self.message_faults
            or self.crash_faults
            or self.partition_faults
            or self.record_crash_faults
        )


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a comma-separated CLI fault spec into a plan.

    Grammar per item::

        drop|duplicate|reorder|corrupt|delay : LABEL [: NTH]
        crash : source|target : STEP
        crash-record : PARTY : RECORD_NO [+ PARTY : RECORD_NO ...]
        partition : DURATION_MS [: LABEL [: NTH]]

    The ``+``-joined crash-record form schedules a *crash pair* (or
    longer chain): the first crash fires during the original migration,
    each subsequent one during the recovery the previous crash forced —
    ``crash-record:source:2+target:3`` crashes the source after its 2nd
    record, then crashes the target after its 3rd record mid-recovery.
    """
    plan = FaultPlan()
    for item in filter(None, (s.strip() for s in spec.split(","))):
        fields = item.split(":")
        kind = fields[0]
        if kind in MESSAGE_FAULT_KINDS:
            if len(fields) < 2:
                raise ValueError(f"{kind} needs a label: {item!r}")
            nth = int(fields[2]) if len(fields) > 2 else 1
            plan.message_faults.append(MessageFault(kind, fields[1], nth))
        elif kind == "crash":
            if len(fields) != 3:
                raise ValueError(f"crash needs side and step: {item!r}")
            plan.crash(fields[1], fields[2])
        elif kind == "crash-record":
            remainder = item.split(":", 1)[1] if ":" in item else ""
            points = [p.strip() for p in remainder.split("+")]
            if not remainder or not all(points):
                raise ValueError(
                    f"crash-record needs party:record pairs joined by '+': {item!r}"
                )
            for point in points:
                pair = point.split(":")
                if len(pair) != 2:
                    raise ValueError(
                        f"crash-record point must be PARTY:RECORD_NO, got {point!r}"
                    )
                plan.crash_at_record(pair[0], int(pair[1]))
        elif kind == "partition":
            if len(fields) < 2:
                raise ValueError(f"partition needs a duration in ms: {item!r}")
            duration_ns = int(float(fields[1]) * 1_000_000)
            label = fields[2] if len(fields) > 2 else None
            nth = int(fields[3]) if len(fields) > 3 else 1
            plan.partition(duration_ns, label, nth)
        else:
            raise ValueError(f"unknown fault kind {kind!r} in {item!r}")
    return plan
