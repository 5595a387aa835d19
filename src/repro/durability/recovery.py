"""Crash recovery: resume a migration's protocol table from the journals.

After a :class:`~repro.errors.PartyCrash` the protocol driver is gone and
one party's volatile state with it.  :class:`MigrationRecovery` validates
every party's write-ahead journal, finds the last step of the protocol
table (:data:`repro.migration.protocol.STEPS`) whose proof the
orchestrator journaled, and drives the table with the same runner a
forward run uses (:meth:`MigrationOrchestrator.run_steps
<repro.migration.orchestrator.MigrationOrchestrator.run_steps>`),
converging in every case to **at most one live instance**:

* before the point of no return (nobody journaled ``released``) it runs
  the table's rollbacks, or rebuilds a dead source from its own sealed
  ``checkpoint`` record;
* after it, with the target alive, it redelivers the journaled sealed key
  and runs on from ``handoff-key`` — from ``resume`` once ``restored``
  is journaled;
* after it, with the target dead, it rebuilds the target, installs the
  key from the target's own sealed ``key-installed`` record and runs the
  table's ``restore`` and ``resume`` steps.  Without that record, or
  without the orchestrator's ``release`` record, the key is gone: a clean
  abort with zero live, and a SPENT source **stays SPENT**.

Redelivery is idempotent (``target_receive_key`` installs the same
K_migrate again); rebuilt instances re-unseal their own secrets via their
EGETKEY sealing key, which a crash does not erase (same CPU, same
measurement), and a journaled K_migrate goes live at most once (its
one-use token in :mod:`repro.sdk.control`).  A crash *during* recovery
takes effect like any other, and :func:`recover_until_rest` re-drives.
A truncated or rolled-back journal makes :meth:`Journal.records` raise
before any action is taken, and a checkpoint blob that is missing or
fails its digest makes :meth:`~repro.durability.store.DurableStore.blob`
raise :class:`~repro.errors.JournalCorrupt` before any enclave is
rebuilt — recovery *refuses* rather than guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability import wal
from repro.durability.journal import Journal, JournalRecord
from repro.errors import PartyCrash, RecoveryError, ReproError
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MigrationOrchestrator,
    MigrationRun,
)
from repro.migration.protocol import (
    POINT_OF_NO_RETURN,
    STEP_RESTORE,
    STEP_RESUME,
    steps_from,
)
from repro.sdk import control
from repro.sdk.host import HostApplication

#: How many back-to-back recoveries one plan may force before the caller
#: declares it wedged.  A crash *pair* needs two; anything past the
#: plan's own crash count means recovery is not converging.
MAX_RECOVERIES = 4


@dataclass
class RecoveryReport:
    """What :meth:`MigrationRecovery.recover` concluded and did."""

    outcome: str  #: already-complete | completed | resumed-source | source-restored | aborted
    live_instances: int
    target_app: HostApplication | None = None
    detail: str = ""
    journal_kinds: dict[str, list[str]] = field(default_factory=dict)

    @property
    def finalized(self) -> bool:
        return self.outcome in ("already-complete", "completed")


class MigrationRecovery:
    """Reconstructs one in-flight migration from its journals."""

    def __init__(
        self,
        testbed,
        source_app: HostApplication,
        orchestrator=None,
        target_app: HostApplication | None = None,
    ) -> None:
        self.tb = testbed
        self.app = source_app
        if target_app is None and orchestrator is not None and orchestrator.run:
            target_app = orchestrator.run.target
        self.target_app = target_app
        # A fresh driver: the crashed one's memory is gone, and only its
        # journal speaks for it.
        self.driver = MigrationOrchestrator(testbed, retry=FAULT_TOLERANT_RETRY)
        image, store = source_app.image.name, testbed.durable
        # Journals are addressed by machine *name* and journal epoch, not
        # by the literal roles: an N-hop chain swaps which machine plays
        # source, and each hop's journals carry the hop's epoch stamp.
        # The source's journal is the one its instance opened; the run's
        # target journals under the run's epoch.
        self.wal = Journal(
            store,
            wal.orchestrator_journal_name(image, testbed.wal_epoch),
            wal.PARTY_ORCHESTRATOR,
        )
        self.source_journal = Journal(store, source_app.library.journal.name, wal.PARTY_SOURCE)
        self.target_journal = Journal(
            store,
            wal.enclave_journal_name(testbed.target.name, image, testbed.wal_epoch),
            wal.PARTY_TARGET,
        )

    # ------------------------------------------------------------------ main
    def recover(self) -> RecoveryReport:
        """Replay the journals and drive the migration to a safe rest.

        Raises :class:`~repro.errors.JournalCorrupt` /
        :class:`~repro.errors.JournalRolledBack` if any journal fails
        validation — a damaged log is refused, never interpreted.
        """
        with self.tb.trace.tracer.span(
            "recovery.replay",
            party="orchestrator",
            image=self.app.image.name,
        ):
            # Validate *all* journals up front; a rollback on any party's
            # log poisons the whole recovery, not just that party's branch.
            wal_records = self.wal.records()
            source_records = self.source_journal.records()
            target_records = self.target_journal.records()
            kinds = {
                self.wal.name: [r.kind for r in wal_records],
                self.source_journal.name: [r.kind for r in source_records],
                self.target_journal.name: [r.kind for r in target_records],
            }
            self.tb.trace.emit("recovery", "begin", journals=kinds)

            if _has(wal_records, wal.WAL_DONE):
                # The crash landed after the final commit (e.g. on the
                # `done` record itself): the target is live but may not
                # have joined the monitor's lineage yet.
                if self._target_alive():
                    self._join_lineage(self.target_app)
                return self._report(
                    "already-complete",
                    1 if self._target_alive() else 0,
                    self.target_app,
                    "orchestrator journaled done",
                    kinds,
                )

            released = _has(source_records, wal.REC_RELEASED) or _has(
                wal_records, wal.WAL_RELEASE
            )
            if not released:
                return self._recover_before_release(source_records, kinds)
            return self._recover_after_release(wal_records, target_records, kinds)

    # ------------------------------------------------- before point of no return
    def _recover_before_release(self, source_records, kinds) -> RecoveryReport:
        # An unjournaled run: a rollback's `cancel` is no step's proof.
        self.driver.rollback(MigrationRun(self.app, self.target_app))
        if self.app.library.enclave_id is not None:
            return self._report(
                "resumed-source", 1, None, "migration rolled back; source resumed", kinds
            )
        checkpoint = _last(source_records, wal.REC_CHECKPOINT)
        if checkpoint is None:
            return self._report(
                "aborted", 0, None, "source lost before any durable checkpoint", kinds
            )
        rebuilt = self._rebuild(
            self.tb.source,
            self.tb.source_os,
            checkpoint.payload["sealed"],
            self.tb.durable.blob(checkpoint.payload["envelope"]),
            "recovered-source",
        )
        detail = "source rebuilt from its own sealed checkpoint record"
        return self._report("source-restored", 1, rebuilt, detail, kinds)

    # -------------------------------------------------- after point of no return
    def _recover_after_release(self, wal_records, target_records, kinds) -> RecoveryReport:
        release = _last(wal_records, wal.WAL_RELEASE)
        transferred = _last(wal_records, wal.WAL_TRANSFERRED)
        if release is None or transferred is None:
            # The source marked itself SPENT but the sealed key never
            # reached the orchestrator's log: K_migrate is gone.  The one
            # thing recovery must never do here is resurrect the source
            # (which refuses a cancel once SPENT anyway).
            self.driver.rollback(MigrationRun(self.app, self.target_app))
            if wal_records:
                detail = "K_migrate was never exported; the SPENT source stays SPENT"
            else:  # a whole-VM run journals nothing on the orchestrator's side
                detail = (
                    "the source released K_migrate, but the run kept no orchestrator "
                    "journal to redeliver it from; the SPENT source stays SPENT"
                )
            return self._report("aborted", 0, None, detail, kinds)
        if not self._target_alive():
            # Target died after the release.  Its journal sealed the
            # received K_migrate under the target enclave's own sealing
            # key: a rebuilt enclave with the same measurement on the same
            # machine can unseal it and restore from the journaled
            # checkpoint envelope.
            installed = _last(target_records, wal.REC_KEY_INSTALLED)
            if installed is None:
                detail = (
                    "the key died with the target before it was journaled; "
                    "the source has self-destroyed — clean abort"
                )
                return self._report("aborted", 0, None, detail, kinds)
            rebuilt = self._rebuild(
                self.tb.target,
                self.tb.target_os,
                installed.payload["sealed"],
                self.tb.durable.blob(transferred.payload["blob"]),
                "recovered-target",
            )
            return self._report(
                "completed", 1, rebuilt, "target rebuilt from its sealed journal", kinds
            )
        run = MigrationRun(
            self.app, self.target_app, wal=self.wal, sealed_key=release.payload["sealed"]
        )
        restored = _last(wal_records, wal.WAL_RESTORED)
        if restored is not None:
            # Crash landed between restore and respawn: only host-side
            # thread bookkeeping is missing.
            run.plan = {int(k): v for k, v in restored.payload["plan"].items()}
            steps, detail = steps_from(STEP_RESUME), "respawned from journaled replay plan"
        else:
            # Redeliver the sealed key (same ciphertext, so even a proven
            # delivery is safe to repeat) and run on through restore.
            run.delivered = self.tb.durable.blob(transferred.payload["blob"])
            steps = steps_from(POINT_OF_NO_RETURN)
            detail = "sealed key redelivered; restore completed"
        try:
            self.driver.run_steps(run, steps)
        except PartyCrash:
            raise
        except ReproError as exc:
            raise RecoveryError(f"recovery could not finish the migration: {exc}") from exc
        self._join_lineage(self.target_app)
        return self._report("completed", 1, self.target_app, detail, kinds)

    # --------------------------------------------------------------- rebuild
    def _rebuild(
        self, machine, guest_os, sealed_key: bytes, envelope: bytes, name_suffix: str
    ) -> HostApplication:
        """Fresh enclave, same image, restored from journaled bytes.

        The journaled key goes in first; the table's ``restore`` and
        ``resume`` steps do the rest.  The run journals no proofs: no
        later recovery could find this instance by them, and its
        K_migrate goes live once at most anyway.
        """
        party = "target" if machine is self.tb.target else "source"
        # The rebuilt instance appends to the journal of the one it replaces.
        epoch = self.tb.wal_epoch if party == "target" else self.app.library.journal_epoch
        with self.tb.trace.tracer.span(
            "recovery.rebuild", party=party, image=self.app.image.name, suffix=name_suffix
        ):
            # The crashed party may have left its OS in migration mode,
            # which refuses new enclaves; recovery ends that migration.
            guest_os.end_migration()
            mirror = self.target_app if machine is self.tb.target else self.app
            mirror = mirror or self.app
            name = f"{self.app.image.name}-{name_suffix}"
            new_app = HostApplication(
                machine,
                guest_os,
                self.app.image,
                self.app.workers,
                owner=None,
                name=name,
                journal_epoch=epoch,
            )
            new_app.completed_iterations = list(mirror.completed_iterations)
            new_app.results = {k: list(v) for k, v in mirror.results.items()}
            new_app.library.launch(owner=None)
            run = MigrationRun(self.app, new_app, delivered=envelope)
            try:
                self._repair_storage(machine, new_app.library)
                new_app.library.control_call(control.recovery_install_key, sealed_key)
                self.driver.run_steps(run, steps_from(STEP_RESTORE))
            except PartyCrash:
                raise
            except ReproError as exc:
                new_app.destroy()
                raise RecoveryError(
                    f"rebuilt instance could not restore from its journal: {exc}"
                ) from exc
            self._join_lineage(new_app)
            return new_app

    def _repair_storage(self, machine, library) -> None:
        """Re-commit a half-handed-off sealed-storage namespace.

        Both sides journal the full sealed table at the handoff boundary
        (the source in its ``storage-export`` record, the target in its
        ``storage-import`` record), so a rebuilt instance can repair a
        namespace whose untrusted blob was torn or lost — the monotonic
        counters survive, and without the repair the freshness rules
        would (correctly, but terminally) refuse the namespace.
        Idempotent: a namespace that moved past the journaled version is
        left alone.
        """
        journal = (
            self.target_journal if machine is self.tb.target else self.source_journal
        )
        record = _last(
            journal.records(), wal.REC_STORAGE_IMPORT
        ) or _last(journal.records(), wal.REC_STORAGE_EXPORT)
        if record is None or "sealed" not in (record.payload or {}):
            return
        library.control_call(
            control.recovery_install_storage, record.payload["sealed"]
        )

    # --------------------------------------------------------------- helpers
    def _target_alive(self) -> bool:
        return (
            self.target_app is not None
            and self.target_app.library.enclave_id is not None
        )

    def _join_lineage(self, app: HostApplication) -> None:
        monitor = self.tb.monitor
        lineage = monitor.lineage_of(self.app)
        if lineage is None:
            lineage = monitor.register_lineage(self.app)
        monitor.join_lineage(lineage, app)

    def _report(
        self, outcome, live, target_app, detail, kinds
    ) -> RecoveryReport:
        self.tb.trace.emit("recovery", "outcome", outcome=outcome, detail=detail)
        return RecoveryReport(
            outcome=outcome,
            live_instances=live,
            target_app=target_app,
            detail=detail,
            journal_kinds=kinds,
        )


def recover_until_rest(
    testbed, source_app: HostApplication, orchestrator=None, crashes=None
) -> tuple[RecoveryReport | None, int, list[str]]:
    """Drive :class:`MigrationRecovery` until it reaches rest.

    A crash pair/chain plan (``crash-record:A:N+B:M``) crashes a party
    *during* recovery; the crash takes effect, surfaces as a
    :class:`~repro.errors.PartyCrash` and re-drives (any other error
    propagates), and each drive consumes one crash fault, so re-driving
    converges.  Returns the report (``None`` when
    :data:`MAX_RECOVERIES` drives never reached rest), the number of
    drives, and each in-recovery crash's message.  Each message is
    appended to ``crashes`` as it happens when a list is passed, so a
    caller keeps them even when a later drive raises.
    """
    if crashes is None:
        crashes = []
    for drive in range(1, MAX_RECOVERIES + 1):
        try:
            report = MigrationRecovery(
                testbed, source_app, orchestrator=orchestrator
            ).recover()
        except PartyCrash as exc:
            crashes.append(str(exc))
        else:
            return report, drive, crashes
    return None, MAX_RECOVERIES, crashes


def _has(records: list[JournalRecord], kind: str) -> bool:
    return any(r.kind == kind for r in records)


def _last(records: list[JournalRecord], kind: str) -> JournalRecord | None:
    found = None
    for record in records:
        if record.kind == kind:
            found = record
    return found
