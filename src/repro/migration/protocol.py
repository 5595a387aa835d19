"""The migration protocol as one ordered table (§III, §V-B, §VI-D).

Checkpoint, virgin target, attested channel, transfer, K_migrate last
with self-destroy, then restore: every driver of a migration walks these
rows in this order, through ``MigrationOrchestrator.run_steps``.
``migrate_enclave`` runs them from the top, a failed attempt runs the
rollbacks, crash recovery (:mod:`repro.durability.recovery`) runs on
from the last proven row, and a whole-VM migration
(:mod:`repro.migration.vm`) runs each enclave's rows split at :data:`CUT_OVER`.

A row names the step, the party whose span it is, and the orchestrator
WAL record that proves it done.  The actions live with the orchestrator
(``_ACTIONS`` in :mod:`repro.migration.orchestrator`); this module holds
only data, so :mod:`repro.faults.plan` can name crash points from it
without an import cycle.

Only ``checkpoint`` (cancel the source) and ``build-target`` (destroy
the target) have a rollback; the steps between them and ``handoff-key``
leave nothing that outlives those two.  ``handoff-key`` is the point of
no return: once the source releases K_migrate it is SPENT, so from that
row on a run can only go forward or end with zero live instances
(``escrow-key`` on the §VI-D agent path, :data:`AGENT_STEPS`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.durability import wal

STEP_CHECKPOINT = "checkpoint"
STEP_BUILD_TARGET = "build-target"
STEP_ESTABLISH_CHANNEL = "establish-channel"
STEP_TRANSFER_CHECKPOINT = "transfer-checkpoint"
STEP_HANDOFF_STORAGE = "handoff-storage"
STEP_HANDOFF_KEY = "handoff-key"
STEP_RESTORE = "restore"
STEP_RESUME = "resume"
STEP_ESCROW_KEY = "escrow-key"
STEP_RELEASE_KEY = "release-key"


@dataclass(frozen=True)
class Step:
    """One row of the protocol table."""

    name: str
    #: Who does the work: the ``party`` attribute of the step's span.
    party: str
    #: The orchestrator WAL record kind that proves the step done;
    #: ``None`` when the party's own journal is the proof.
    proof: str | None = None
    #: Negotiated away when there is nothing to move (no span, no work);
    #: its crash point still fires.
    negotiated: bool = False


STEPS = (
    Step(STEP_CHECKPOINT, wal.PARTY_SOURCE, wal.WAL_CHECKPOINT),
    Step(STEP_BUILD_TARGET, wal.PARTY_TARGET, wal.WAL_TARGET_BUILT),
    Step(STEP_ESTABLISH_CHANNEL, wal.PARTY_ORCHESTRATOR, wal.WAL_CHANNEL),
    Step(STEP_TRANSFER_CHECKPOINT, wal.PARTY_ORCHESTRATOR, wal.WAL_TRANSFERRED),
    Step(
        STEP_HANDOFF_STORAGE,
        wal.PARTY_ORCHESTRATOR,
        wal.WAL_STORAGE_DELIVERED,
        negotiated=True,
    ),
    Step(STEP_HANDOFF_KEY, wal.PARTY_ORCHESTRATOR, wal.WAL_DELIVERED),
    Step(STEP_RESTORE, wal.PARTY_TARGET, wal.WAL_RESTORED),
    # `done` closes the whole run, so it is journaled after this span.
    Step(STEP_RESUME, wal.PARTY_TARGET, wal.WAL_DONE),
)

_ROW = {step.name: step for step in STEPS}

#: Whole-VM migration (§VI-D): the checkpoint rides in the pre-copied
#: guest RAM, so no row moves it and ``restore`` reads it from there.
VM_STEPS = tuple(step for step in STEPS if step.name != STEP_TRANSFER_CHECKPOINT)

#: The whole-VM agent path: K_migrate (and sealed storage) is escrowed to
#: the target's agent enclave before the cut-over and released to the
#: rebuilt enclave by local attestation after it.  The agent rows journal
#: no orchestrator proof: the agent recovers from its own journal.
AGENT_STEPS = (
    _ROW[STEP_CHECKPOINT],
    Step(STEP_ESCROW_KEY, wal.PARTY_AGENT),
    _ROW[STEP_BUILD_TARGET],
    Step(STEP_RELEASE_KEY, wal.PARTY_AGENT),
    _ROW[STEP_RESTORE],
    _ROW[STEP_RESUME],
)

#: A whole-VM run's rows before this one run while the VM prepares, the
#: rest once it resumes on the target.
CUT_OVER = STEP_BUILD_TARGET

#: The first step no failure can undo.
POINT_OF_NO_RETURN = STEP_HANDOFF_KEY

#: Step names crash points can name: every row but ``resume``, which
#: has no crash point of its own.
PROTOCOL_STEPS = tuple(step.name for step in STEPS if step.name != STEP_RESUME)


def steps_before(name: str, steps: tuple[Step, ...] = STEPS) -> tuple[Step, ...]:
    """The rows of ``steps`` before row ``name``."""
    return steps[:[step.name for step in steps].index(name)]


def steps_from(name: str, steps: tuple[Step, ...] = STEPS) -> tuple[Step, ...]:
    """The rows of ``steps`` from row ``name`` to the end."""
    return steps[[step.name for step in steps].index(name):]
