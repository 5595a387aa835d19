"""Cross-migration attacks on the sealed-storage handoff, executable.

Migratable sealed storage gives the untrusted operator a new toy box:
the namespace blob sits on a disk the operator owns, the handoff blob
crosses a network the operator runs, and "the same enclave" exists on
two machines in sequence.  Each scenario here mounts one attack from
that box and demands the same verdict the rest of the playbook demands:
the attack is *detected and refused with a typed error* — never a
silent success, never a fork, and the legitimate lineage keeps its
state.

* :func:`run_storage_rollback_attack`  — restore a stale sealed-table
  blob after the storage migrated away and back; the monotonic version
  counter must refuse it (:class:`~repro.errors.StorageRolledBack`).
* :func:`run_counter_fork_attack`      — relaunch the image on the
  retired source host and use its old namespace; the retired tombstone
  must refuse it (:class:`~repro.errors.StorageRetired`) — while a
  *legitimate* return migration un-retires the host.
* :func:`run_stale_checkpoint_attack`  — a malicious migration driver
  withholds the negotiated storage handoff, pairing a fresh checkpoint
  with a stale (empty) namespace; the target must refuse to go live
  (:class:`~repro.errors.StorageRolledBack`).
* :func:`run_handoff_replay_attack`    — replay the captured handoff
  blob at the target; the handoff sequence counter must refuse it
  (:class:`~repro.errors.HandoffReplayed`).

Three more attacks need no storage at all: each installs a *journaled*
copy of K_migrate into a second instance of the image, restores the
journaled checkpoint and tries to go live next to the real instance — a
fork, and a rollback of everything it did since.  The key's one-use
token must refuse each (:class:`~repro.errors.KeyReused`):

* :func:`run_key_fork_after_migration` — from the source's
  ``checkpoint`` record, after the migration completed (self-destroy
  must still mean something);
* :func:`run_key_fork_after_cancel`    — from the same record after a
  rolled-back attempt (§V-B: a cancelled checkpoint is useless);
* :func:`run_key_fork_after_go_live`   — from the target's
  ``key-installed`` record and the orchestrator's ``transferred`` blob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.wiretap import Wiretap
from repro.durability import wal
from repro.durability.journal import Journal
from repro.durability.sweep import COUNTER_START, build_sweep_app
from repro.errors import (
    HandoffReplayed,
    InvariantViolation,
    KeyReused,
    MigrationAborted,
    SealedStorageError,
    StorageRetired,
    StorageRolledBack,
)
from repro.faults import FaultInjector, FaultPlan
from repro.migration.chain import hop_view
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sdk import control
from repro.sdk.host import HostApplication


@dataclass
class CrossMigrationOutcome:
    """One cross-migration attack's verdict."""

    attack: str
    #: The attack was refused with a typed error (never silently absorbed).
    blocked: bool
    #: Class name of the refusal, e.g. ``"StorageRolledBack"``.
    refusal: str = ""
    detail: str = ""
    #: The legitimate instance still serves the correct workload +
    #: storage state after the attack.
    state_intact: bool = False


def _put_secrets(app: HostApplication, upto: int) -> None:
    for n in range(1, upto + 1):
        app.library.control_call(control.storage_put, "failed-logins", n)


def _storage_ok(app: HostApplication, expect: int) -> bool:
    try:
        counter = app.ecall_once(0, "read")
        stored = app.library.control_call(control.storage_get, "failed-logins")
    except SealedStorageError:
        return False
    return counter == COUNTER_START and stored == expect


def run_storage_rollback_attack(seed: int | str = 41) -> CrossMigrationOutcome:
    """Roll the source host's sealed table back across a migration cycle.

    The operator snapshots the namespace blob at version 1, lets the
    enclave advance to version 3, migrates it away and back (so the
    namespace legitimately lives on the original host again), then
    swaps in the stale snapshot.  The blob authenticates — it *is* a
    genuine sealed table for this enclave on this CPU — but the version
    counter has moved on, and the read must refuse.
    """
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    ns = wal.storage_namespace(tb.source.name, app.image.name)

    _put_secrets(app, 1)
    stale_blob = bytes(tb.durable.log(ns))  # the operator's disk snapshot
    _put_secrets(app, 3)

    # Hop there and back: the namespace retires on the source, migrates
    # to the target, and re-binds to the source on the return hop.
    result = MigrationOrchestrator(hop_view(tb, 1)).migrate_enclave(app)
    back = MigrationOrchestrator(hop_view(tb, 2)).migrate_enclave(result.target_app)
    home = back.target_app

    tb.durable.set_log(ns, stale_blob)  # the attack: restore the snapshot
    try:
        home.library.control_call(control.storage_get, "failed-logins")
    except StorageRolledBack as exc:
        return CrossMigrationOutcome(
            attack="storage-rollback",
            blocked=True,
            refusal=type(exc).__name__,
            detail=str(exc),
            # The refusal is durable, not destructive: the legitimate
            # blob is still on disk for the operator to put back.
            state_intact=home.ecall_once(0, "read") == COUNTER_START,
        )
    return CrossMigrationOutcome(
        attack="storage-rollback",
        blocked=False,
        detail="stale sealed table was served silently",
    )


def run_counter_fork_attack(seed: int | str = 42) -> CrossMigrationOutcome:
    """Relaunch the image on the retired source and use its namespace.

    After the handoff the source host still has the (authentic!) sealed
    table and counters on disk.  The operator relaunches the same image
    there, hoping the fresh instance picks the namespace up and forks
    the counter lineage.  The retired tombstone must refuse both reads
    and writes — and the *legitimate* return migration must un-retire
    the host, or reuse would be impossible.
    """
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    _put_secrets(app, 3)
    result = MigrationOrchestrator(hop_view(tb, 1)).migrate_enclave(app)

    # The fork: a virgin same-image instance on the retired source host.
    fork = HostApplication(
        tb.source, tb.source_os, app.image, [], owner=tb.owner
    ).launch()
    try:
        fork.library.control_call(control.storage_get, "failed-logins")
    except StorageRetired as exc:
        refusal, detail = type(exc).__name__, str(exc)
    else:
        return CrossMigrationOutcome(
            attack="counter-fork",
            blocked=False,
            detail="a relaunched instance read the retired namespace",
        )
    try:
        fork.library.control_call(control.storage_put, "failed-logins", 0)
        return CrossMigrationOutcome(
            attack="counter-fork",
            blocked=False,
            detail="a relaunched instance wrote the retired namespace",
        )
    except StorageRetired:
        pass
    fork.destroy()

    # Soundness: the legitimate enclave migrating home un-retires the
    # namespace (the strictly increasing handoff sequence outruns the
    # retirement tombstone).
    back = MigrationOrchestrator(hop_view(tb, 2)).migrate_enclave(result.target_app)
    return CrossMigrationOutcome(
        attack="counter-fork",
        blocked=True,
        refusal=refusal,
        detail=detail,
        state_intact=_storage_ok(back.target_app, 3),
    )


class _StorageWithholdingOrchestrator(MigrationOrchestrator):
    """A malicious driver that skips the negotiated storage handoff."""

    def storage_pending(self, app: HostApplication) -> bool:
        return False


def run_stale_checkpoint_attack(seed: int | str = 43) -> CrossMigrationOutcome:
    """Pair a fresh checkpoint with a stale storage namespace.

    The negotiation is the orchestrator's call, and the orchestrator is
    untrusted: here it simply never ships the storage.  The checkpoint
    itself binds the storage version it was taken at, so the target —
    whose namespace never advanced — must refuse to go live rather than
    resume the workload against rolled-back persistent state.
    """
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    _put_secrets(app, 3)
    orch = _StorageWithholdingOrchestrator(tb)
    try:
        orch.migrate_enclave(app)
    except StorageRolledBack as exc:
        return CrossMigrationOutcome(
            attack="stale-checkpoint",
            blocked=True,
            refusal=type(exc).__name__,
            detail=str(exc),
            # Refusal beats availability: the source is SPENT and the
            # target never went live — but no instance serves stale
            # state, and the namespace is intact for recovery.
            state_intact=tb.durable.counter(
                wal.storage_namespace(tb.source.name, app.image.name)
            )
            == 3,
        )
    return CrossMigrationOutcome(
        attack="stale-checkpoint",
        blocked=False,
        detail="target went live without the storage handoff",
    )


class _ReplayingOrchestrator(MigrationOrchestrator):
    """A malicious driver that re-sends the handoff blob it just delivered.

    The replay has to land while the session is still open — once the
    target goes live the session key is wiped and a replay dies as a
    :class:`~repro.errors.ChannelError` before any storage logic runs.
    Inside the window the blob authenticates, so the handoff sequence
    counter is the defense under test.
    """

    replay_refusal: Exception | None = None

    def __init__(self, tb) -> None:
        super().__init__(tb)
        self.wiretap = Wiretap.install(tb.network)

    def handoff_storage(self, app, target_app):
        version = super().handoff_storage(app, target_app)
        sealed = self.wiretap.captured("storage-handoff")[-1]
        try:
            target_app.library.control_call(control.target_import_storage, sealed)
        except HandoffReplayed as exc:
            self.replay_refusal = exc
        return version


def run_handoff_replay_attack(seed: int | str = 44) -> CrossMigrationOutcome:
    """Replay the captured storage-handoff blob at the target.

    The wire is the operator's: the handoff blob is theirs to keep and
    re-send.  The blob authenticates under the session key, but its
    channel sequence was consumed by the first import — the handoff
    counter must refuse the second, and the refusal must not derail the
    legitimate migration happening around it.
    """
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    _put_secrets(app, 3)
    orch = _ReplayingOrchestrator(tb)
    result = orch.migrate_enclave(app)
    target = result.target_app

    if orch.replay_refusal is None:
        return CrossMigrationOutcome(
            attack="handoff-replay",
            blocked=False,
            detail="the target imported the same handoff twice",
        )
    # Defense in depth: after go-live the same replay dies even earlier,
    # at the (now torn down) session channel.
    from repro.errors import ChannelError

    try:
        target.library.control_call(
            control.target_import_storage, orch.wiretap.captured("storage-handoff")[-1]
        )
        return CrossMigrationOutcome(
            attack="handoff-replay",
            blocked=False,
            detail="a post-migration replay was imported",
        )
    except (ChannelError, HandoffReplayed):
        pass
    return CrossMigrationOutcome(
        attack="handoff-replay",
        blocked=True,
        refusal=type(orch.replay_refusal).__name__,
        detail=str(orch.replay_refusal),
        state_intact=_storage_ok(target, 3),
    )


#: ``incr`` calls the live instance serves after the migration, so a
#: forked instance would serve a visibly older counter.
_SERVED_SINCE = 5


def _record(tb, machine, image, party: str, kind: str):
    name = wal.enclave_journal_name(machine.name, image.name)
    return Journal(tb.durable, name, party).last(kind)


def _key_fork(attack, tb, live, machine, guest_os, image, sealed_key, envelope):
    """Go live with a journaled K_migrate copy in a second instance."""
    for _ in range(_SERVED_SINCE):
        live.ecall_once(0, "incr")
    fork = HostApplication(machine, guest_os, image, [], name=f"{image.name}-fork")
    library = fork.library
    library.launch(owner=None)
    try:
        library.control_call(control.recovery_install_key, sealed_key)
        plan = library.control_call(control.target_restore_memory, envelope)
        library.replay_cssa(plan)
        library.control_call(control.target_verify_and_finish)
    except KeyReused as exc:
        fork.destroy()
        try:
            tb.monitor.check_now()
        except InvariantViolation:
            pass
        return CrossMigrationOutcome(
            attack=attack,
            blocked=True,
            refusal=type(exc).__name__,
            detail=str(exc),
            state_intact=live.ecall_once(0, "read") == COUNTER_START + _SERVED_SINCE
            and not tb.monitor.violations,
        )
    return CrossMigrationOutcome(
        attack=attack,
        blocked=False,
        detail=f"a second instance went live serving {fork.ecall_once(0, 'read')}",
    )


def run_key_fork_after_migration(seed: int | str = 45) -> CrossMigrationOutcome:
    """Fork the migrated enclave from the source's own checkpoint record."""
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    live = MigrationOrchestrator(tb).migrate_enclave(app).target_app
    record = _record(tb, tb.source, app.image, wal.PARTY_SOURCE, wal.REC_CHECKPOINT)
    return _key_fork(
        "key-fork-after-migration", tb, live, tb.source, tb.source_os, app.image,
        record.payload["sealed"], tb.durable.blob(record.payload["envelope"]),
    )


def run_key_fork_after_cancel(seed: int | str = 46) -> CrossMigrationOutcome:
    """Fork the source from the checkpoint record of a cancelled attempt."""
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    plan = FaultPlan(seed=seed).drop("channel-request")
    try:
        MigrationOrchestrator(tb, faults=FaultInjector(plan)).migrate_enclave(app)
    except MigrationAborted:
        pass  # rolled back: the source cancelled and serves on
    record = _record(tb, tb.source, app.image, wal.PARTY_SOURCE, wal.REC_CHECKPOINT)
    return _key_fork(
        "key-fork-after-cancel", tb, app, tb.source, tb.source_os, app.image,
        record.payload["sealed"], tb.durable.blob(record.payload["envelope"]),
    )


def run_key_fork_after_go_live(seed: int | str = 47) -> CrossMigrationOutcome:
    """Fork the live target from its own ``key-installed`` record."""
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb)
    live = MigrationOrchestrator(tb).migrate_enclave(app).target_app
    record = _record(tb, tb.target, app.image, wal.PARTY_TARGET, wal.REC_KEY_INSTALLED)
    transferred = Journal(
        tb.durable, wal.orchestrator_journal_name(app.image.name), wal.PARTY_ORCHESTRATOR
    ).last(wal.WAL_TRANSFERRED)
    return _key_fork(
        "key-fork-after-go-live", tb, live, tb.target, tb.target_os, app.image,
        record.payload["sealed"], tb.durable.blob(transferred.payload["blob"]),
    )


#: The whole matrix, in one call (CLI + CI entry point).
CROSS_MIGRATION_ATTACKS = {
    "storage-rollback": run_storage_rollback_attack,
    "counter-fork": run_counter_fork_attack,
    "stale-checkpoint": run_stale_checkpoint_attack,
    "handoff-replay": run_handoff_replay_attack,
    "key-fork-after-migration": run_key_fork_after_migration,
    "key-fork-after-cancel": run_key_fork_after_cancel,
    "key-fork-after-go-live": run_key_fork_after_go_live,
}


def run_cross_migration_matrix(seed: int | str = 40) -> list[CrossMigrationOutcome]:
    """Run every cross-migration attack; the caller asserts all blocked."""
    return [
        fn(seed=f"{seed}/{name}") for name, fn in CROSS_MIGRATION_ATTACKS.items()
    ]
