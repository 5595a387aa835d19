"""Crash recovery: rebuild a migration's state machine from the journals.

After a :class:`~repro.errors.PartyCrash` the protocol driver is gone and
one party's volatile state with it.  :class:`MigrationRecovery` reads the
write-ahead journals of all parties, decides where the protocol stood at
the instant of the crash, and either *finalizes* the migration (the key
already moved: finish delivery/restore, or rebuild the target from its
own sealed journal records) or *rolls it back* (the key never moved:
cancel the source, or rebuild the source from its own sealed checkpoint
record) — converging, in every case, to **at most one live instance**:

===========================================  ================================
observed journal state                        action → outcome
===========================================  ================================
orchestrator ``done``                         nothing to do (already-complete)
key not released, source enclave alive        cancel source, scrap any
                                              half-built target (resumed-source)
key not released, source dead, has a          rebuild source from its own
``checkpoint`` record                         sealed record (source-restored)
key not released, source dead, no record      clean abort, zero live
source ``released`` but the sealed blob was   clean abort, zero live — a SPENT
never journaled by the orchestrator           source **stays SPENT**, always
orchestrator ``release``, target alive        redeliver sealed key
                                              (idempotent), restore, respawn
orchestrator ``release``+``restored``,        respawn from the journaled
target alive                                  replay plan
orchestrator ``release``, target dead,        rebuild target, unseal K_migrate
target journaled ``key-installed``            from its own journal (completed)
orchestrator ``release``, target dead,        clean abort, zero live (the key
no ``key-installed`` record                   died with the target)
===========================================  ================================

Retransmitted sealed keys are idempotent (``target_receive_key`` installs
the same K_migrate again); rebuilt instances re-unseal their own secrets
via their EGETKEY sealing key, which a crash does not erase (same CPU,
same measurement).  A truncated or rolled-back journal makes
:meth:`Journal.records` raise before any action is taken, and a
checkpoint blob that is missing or fails its digest makes
:meth:`~repro.durability.store.DurableStore.blob` raise
:class:`~repro.errors.JournalCorrupt` before any enclave is rebuilt —
recovery *refuses* rather than guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability import wal
from repro.durability.journal import Journal, JournalRecord
from repro.errors import NetworkFault, PartyCrash, RecoveryError, ReproError
from repro.sdk import control
from repro.sdk.host import HostApplication

_REDELIVERY_ROUNDS = 5

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
        if target_app is None and orchestrator is not None:
            target_app = getattr(orchestrator, "_current_target", None)
        self.target_app = target_app
        image = source_app.image
        store = testbed.durable
        # Journals are addressed by machine *name* and journal epoch, not
        # by the literal roles: an N-hop chain swaps which machine plays
        # source, and each hop's journals carry the hop's epoch stamp.
        self.wal = Journal(
            store,
            wal.orchestrator_journal_name(
                image.name, getattr(testbed, "wal_epoch", 0)
            ),
            wal.PARTY_ORCHESTRATOR,
        )
        self.source_journal = Journal(
            store,
            wal.enclave_journal_name(
                testbed.source.name,
                image.name,
                getattr(testbed.source, "journal_epoch", 0),
            ),
            wal.PARTY_SOURCE,
        )
        self.target_journal = Journal(
            store,
            wal.enclave_journal_name(
                testbed.target.name,
                image.name,
                getattr(testbed.target, "journal_epoch", 0),
            ),
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
        self._scrap_target()
        if self.app.library.enclave_id is not None:
            # The source never gave up K_migrate: roll the protocol back
            # and return the source to service.
            self.app.library.control_call(control.source_cancel_migration)
            self.app.library.last_checkpoint = None
            self.tb.source_os.end_migration()
            return self._report(
                "resumed-source", 1, None, "migration rolled back; source resumed", kinds
            )
        checkpoint = _last(source_records, wal.REC_CHECKPOINT)
        if checkpoint is None:
            return self._report(
                "aborted", 0, None, "source lost before any durable checkpoint", kinds
            )
        rebuilt = self._rebuild_instance(
            machine=self.tb.source,
            guest_os=self.tb.source_os,
            sealed_key=checkpoint.payload["sealed"],
            envelope=self.tb.durable.blob(checkpoint.payload["envelope"]),
            name_suffix="recovered-source",
        )
        return self._report(
            "source-restored",
            1,
            rebuilt,
            "source rebuilt from its own sealed checkpoint record",
            kinds,
        )

    # -------------------------------------------------- after point of no return
    def _recover_after_release(self, wal_records, target_records, kinds) -> RecoveryReport:
        release = _last(wal_records, wal.WAL_RELEASE)
        transferred = _last(wal_records, wal.WAL_TRANSFERRED)
        if release is None:
            # The source marked itself SPENT but the sealed key never
            # reached the orchestrator's log: K_migrate is gone.  The one
            # thing recovery must never do here is resurrect the source.
            self._scrap_target()
            return self._report(
                "aborted",
                0,
                None,
                "K_migrate was never exported; the SPENT source stays SPENT",
                kinds,
            )
        if self._target_alive():
            return self._finalize_live_target(wal_records, release, transferred, kinds)
        # Target died after the release.  Its journal sealed the received
        # K_migrate under the target enclave's own sealing key: a rebuilt
        # enclave with the same measurement on the same machine can
        # unseal it and restore from the journaled checkpoint envelope.
        installed = _last(target_records, wal.REC_KEY_INSTALLED)
        if installed is None or transferred is None:
            return self._report(
                "aborted",
                0,
                None,
                "the key died with the target before it was journaled; "
                "the source has self-destroyed — clean abort",
                kinds,
            )
        rebuilt = self._rebuild_instance(
            machine=self.tb.target,
            guest_os=self.tb.target_os,
            sealed_key=installed.payload["sealed"],
            envelope=self.tb.durable.blob(transferred.payload["blob"]),
            name_suffix="recovered-target",
        )
        return self._report(
            "completed", 1, rebuilt, "target rebuilt from its sealed journal", kinds
        )

    def _finalize_live_target(self, wal_records, release, transferred, kinds) -> RecoveryReport:
        target = self.target_app
        restored = _last(wal_records, wal.WAL_RESTORED)
        if restored is not None:
            # Crash landed between restore and respawn: only host-side
            # thread bookkeeping is missing.
            plan = {int(k): v for k, v in restored.payload["plan"].items()}
            target.respawn_after_restore(plan)
            self.tb.target_os.end_migration()
            self.wal.append(wal.WAL_DONE, {"via": "recovery-respawn"})
            self._join_lineage(target)
            return self._report(
                "completed", 1, target, "respawned from journaled replay plan", kinds
            )
        if transferred is None:
            self._scrap_target()
            return self._report(
                "aborted",
                0,
                None,
                "checkpoint was never journaled; nothing to restore",
                kinds,
            )
        # Redeliver the sealed key (same ciphertext — target_receive_key
        # is idempotent for a repeated blob) and run the restore steps.
        blob = self.tb.durable.blob(transferred.payload["blob"])
        delivered = self._redeliver(release.payload["sealed"])
        library = target.library
        library.control_call(control.target_receive_key, delivered)
        plan = library.control_call(control.target_restore_memory, blob)
        library.replay_cssa(plan)
        library.control_call(control.target_verify_and_finish, blob)
        target.respawn_after_restore(plan)
        self.tb.target_os.end_migration()
        self.wal.append(wal.WAL_DONE, {"via": "recovery-redeliver"})
        self._join_lineage(target)
        return self._report(
            "completed", 1, target, "sealed key redelivered; restore completed", kinds
        )

    # --------------------------------------------------------------- rebuild
    def _rebuild_instance(
        self,
        machine,
        guest_os,
        sealed_key: bytes,
        envelope: bytes,
        name_suffix: str,
    ) -> HostApplication:
        """Fresh enclave, same image, state restored from journaled bytes."""
        party = "target" if machine is self.tb.target else "source"
        with self.tb.trace.tracer.span(
            "recovery.rebuild",
            party=party,
            image=self.app.image.name,
            suffix=name_suffix,
        ):
            # The crashed party may have left its OS in migration mode,
            # which refuses new enclaves; recovery ends that migration.
            guest_os.end_migration()
            mirror = self.target_app if machine is self.tb.target else self.app
            mirror = mirror or self.app
            new_app = HostApplication(
                machine,
                guest_os,
                self.app.image,
                self.app.workers,
                owner=None,
                name=f"{self.app.image.name}-{name_suffix}",
            )
            new_app.completed_iterations = list(mirror.completed_iterations)
            new_app.results = {k: list(v) for k, v in mirror.results.items()}
            new_app.library.launch(owner=None)
            library = new_app.library
            try:
                self._repair_storage(machine, library)
                library.control_call(control.recovery_install_key, sealed_key)
                plan = library.control_call(control.target_restore_memory, envelope)
                library.replay_cssa(plan)
                library.control_call(control.target_verify_and_finish, envelope)
            except ReproError as exc:
                library.destroy()
                raise RecoveryError(
                    f"rebuilt instance could not restore from its journal: {exc}"
                ) from exc
            new_app.respawn_after_restore(plan)
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

    def _scrap_target(self) -> None:
        """Best-effort teardown of a half-built target instance."""
        if self.target_app is None:
            return
        try:
            self.target_app.destroy()
        except ReproError:
            pass

    def _redeliver(self, sealed: bytes) -> bytes:
        with self.tb.trace.tracer.span("recovery.redeliver", party="orchestrator"):
            last_exc: Exception | None = None
            for _ in range(_REDELIVERY_ROUNDS):
                try:
                    return self.tb.network.transfer("kmigrate", sealed)
                except NetworkFault as exc:
                    last_exc = exc
                    self.tb.clock.advance(8_000_000)
            raise RecoveryError(
                "sealed key could not be redelivered during recovery"
            ) from last_exc

    def _join_lineage(self, app: HostApplication) -> None:
        monitor = getattr(self.tb, "monitor", None)
        if monitor is None:
            return
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
    *during* recovery; each drive consumes one crash fault, so
    re-driving converges.  The crash surfaces as a bare
    :class:`~repro.errors.PartyCrash` or wrapped (e.g. a
    ``RecoveryError`` caused by one): both re-drive, any other error
    propagates.  Returns the report (``None`` when
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
        except ReproError as exc:
            if not isinstance(exc, PartyCrash) and not isinstance(
                exc.__cause__, PartyCrash
            ):
                raise
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
