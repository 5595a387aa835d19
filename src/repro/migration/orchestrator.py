"""Migration orchestration: the untrusted glue between both machines.

The orchestrator is the cloud operator's tooling: it moves messages, asks
IAS for verification reports, and pokes both SGX libraries — but it is
*outside* the TCB.  Every security-relevant decision (who gets the key,
whether the checkpoint is intact, whether the replayed CSSA is right) is
made inside the enclaves by :mod:`repro.sdk.control`; a hostile
orchestrator can only cause the protocol to abort, never to leak or fork.

The flow implements §III's three operations with §V's defenses:

1. source control thread checkpoints (two-phase, engine-scheduled);
2. target rebuilds a virgin enclave from the same image;
3. attested DH channel (source attests target via IAS; target verifies
   the source's image-key signature);
4. checkpoint transfer, K_migrate last, source self-destroy;
5. target restores memory, the library replays CSSA, the control thread
   verifies and goes live.

Degraded-mode operation (the failure-handling layer added around that
flow) is a retry/abort state machine whose rules keep the paper's
invariants intact under arbitrary infrastructure faults:

* Any failure *before* ``source_release_key`` is recoverable: the source
  cancels (wiping K_migrate, resuming its workers), the half-built
  target is destroyed, and the retry renegotiates everything — new
  checkpoint, new K_migrate, new attested channel — from scratch.
* ``source_release_key`` is the point of no return.  The source is
  SPENT the instant the sealed key leaves the enclave; the orchestrator
  may retransmit the *same* sealed blob (resending ciphertext is
  harmless) but can never coax the source back to life.  If the key is
  lost — a partition outlives the retries, the target crashes after
  receipt — the migration aborts with *zero* live instances:
  single-instance beats availability, by design.
* The checkpoint crosses the wire chunked; lost / corrupted / reordered
  / duplicated chunks are healed by retransmitting exactly the missing
  ones (resumable transfer).  Framing is untrusted — end-to-end
  integrity still rests solely on the envelope MAC checked in-enclave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability import wal
from repro.durability.journal import Journal
from repro.errors import (
    ChunkError,
    CryptoError,
    IntegrityError,
    LinkPartitioned,
    LinkTimeout,
    MachineCrash,
    MigrationAborted,
    MigrationError,
    NetworkFault,
    PartyCrash,
    ReproError,
    SelfDestroyed,
    StepTimeout,
)
from repro.faults.plan import (
    STEP_BUILD_TARGET,
    STEP_CHECKPOINT,
    STEP_ESTABLISH_CHANNEL,
    STEP_HANDOFF_KEY,
    STEP_HANDOFF_STORAGE,
    STEP_RESTORE,
    STEP_TRANSFER_CHECKPOINT,
)
from repro.migration.checkpoint import DEFAULT_CHUNK_BYTES, ChunkReassembler, chunk_blob
from repro.sim.engine import EngineStall
from repro.migration.testbed import Testbed
from repro.sdk import control
from repro.sdk.host import HostApplication, WorkerSpec
from repro.serde import SerdeError, pack, unpack
from repro.sgx.structures import Quote


@dataclass(frozen=True)
class RetryPolicy:
    """Degraded-mode knobs for one migration.

    The default policy reproduces the seed behaviour exactly: one
    attempt, no chunking, no backoff — a fault surfaces as the original
    exception.  :data:`FAULT_TOLERANT_RETRY` is the production-shaped
    preset the adversarial matrix runs under.
    """

    #: Whole-protocol attempts (1 = fail on first fault, seed behaviour).
    max_attempts: int = 1
    #: First retry backoff on the virtual clock; doubles per retry.
    base_backoff_ns: int = 8_000_000
    backoff_multiplier: int = 2
    #: Engine-round budget for any single engine-driven step (the fix
    #: for the previously unbounded ``checkpoint_enclave`` wait).
    max_step_rounds: int = 2_000_000
    #: Chunk size for the resumable checkpoint transfer; ``None`` ships
    #: the envelope in one message exactly like the seed protocol.
    chunk_bytes: int | None = None
    #: Retransmission passes for the chunk stream / the sealed key.
    max_transfer_rounds: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.max_transfer_rounds < 1:
            raise ValueError("max_transfer_rounds must be at least 1")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive (or None)")

    def next_backoff(self, backoff_ns: int) -> int:
        return backoff_ns * self.backoff_multiplier


#: The preset used by the fault matrix and the CLI's degraded-mode demo.
FAULT_TOLERANT_RETRY = RetryPolicy(
    max_attempts=5,
    base_backoff_ns=8_000_000,
    backoff_multiplier=2,
    max_step_rounds=2_000_000,
    chunk_bytes=DEFAULT_CHUNK_BYTES,
    max_transfer_rounds=5,
)


@dataclass
class MigrationStats:
    """Degraded-mode counters, surfaced in the CLI and benchmarks."""

    attempts: int = 0
    retries: int = 0
    aborts: int = 0
    chunk_retransmits: int = 0
    key_retransmits: int = 0
    step_timeouts: int = 0
    crashes_seen: int = 0
    duplicate_chunks_ignored: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "aborts": self.aborts,
            "chunk_retransmits": self.chunk_retransmits,
            "key_retransmits": self.key_retransmits,
            "step_timeouts": self.step_timeouts,
            "crashes_seen": self.crashes_seen,
            "duplicate_chunks_ignored": self.duplicate_chunks_ignored,
        }


@dataclass
class EnclaveMigrationResult:
    """Outcome of migrating one enclave application."""

    target_app: HostApplication
    replay_plan: dict[int, int]
    checkpoint_bytes: int
    transferred_bytes: int
    attempts: int = 1
    stats: MigrationStats = field(default_factory=MigrationStats)


class MigrationOrchestrator:
    """Drives enclave migrations across a :class:`Testbed`.

    ``retry`` selects the failure-handling behaviour; ``faults`` attaches
    a :class:`~repro.faults.injector.FaultInjector` whose crash points
    fire at step boundaries (its message faults act through the network).
    """

    def __init__(
        self,
        testbed: Testbed,
        retry: RetryPolicy | None = None,
        faults=None,
    ) -> None:
        self.tb = testbed
        self.retry = retry or RetryPolicy()
        self.faults = faults
        self.stats = MigrationStats()
        self.tel = testbed.telemetry
        self._run_start_ns = 0
        if faults is not None:
            faults.attach(testbed)
        # Point-of-no-return bookkeeping for the current migration.
        self._key_released = False
        self._key_delivered = False
        self._source_crashed = False
        # Durability: the orchestrator's own write-ahead log plus the
        # in-flight target, both consulted by crash recovery.
        self._wal: Journal | None = None
        self._current_target: HostApplication | None = None
        self._lineage: int | None = None

    # ------------------------------------------------------------- pieces
    def checkpoint_enclave(self, app: HostApplication) -> None:
        """Run the source control thread to completion (steps ③-⑤).

        The wait is bounded by ``retry.max_step_rounds``: a wedged
        control thread (a worker that never reaches the quiescent point)
        surfaces as :class:`StepTimeout` instead of hanging the testbed.
        """
        app.library.last_checkpoint = None
        app.library.on_migration_signal()
        self._bounded_wait(
            lambda: app.library.last_checkpoint is not None, STEP_CHECKPOINT
        )

    def _bounded_wait(self, predicate, step: str) -> None:
        try:
            self.tb.source_os.run_until(
                predicate, max_rounds=self.retry.max_step_rounds
            )
        except ReproError as exc:
            # Only scheduling failures become timeouts: round exhaustion
            # (bare ReproError) and engine stalls.  Anything more specific
            # is enclave code failing and must keep its own type.
            if type(exc) is not ReproError and not isinstance(exc, EngineStall):
                raise
            self.stats.step_timeouts += 1
            self.tel.counter("migration.step_timeouts_total", step=step).inc()
            self.tb.trace.emit("migration", "step_timeout", step=step)
            raise StepTimeout(step, str(exc)) from exc

    def build_virgin_target(self, app: HostApplication) -> HostApplication:
        """Step-1: same image, fresh enclave, on the target machine."""
        target_app = HostApplication(
            self.tb.target,
            self.tb.target_os,
            app.image,
            app.workers,
            owner=None,  # no user involvement during migration (§III)
            name=f"{app.image.name}-migrated",
        )
        # The host application's own memory (loop positions, results)
        # travels with the VM RAM; mirror it onto the target instance.
        target_app.completed_iterations = list(app.completed_iterations)
        target_app.results = {k: list(v) for k, v in app.results.items()}
        target_app.library.launch(owner=None)
        return target_app

    def establish_channel(self, app: HostApplication, target_app: HostApplication) -> None:
        """Step-2: mutual authentication + DH between control threads."""
        net = self.tb.network
        quote, target_pub = target_app.library.control_call(
            control.target_channel_request, self.tb.target.quoting_enclave
        )
        request = net.transfer(
            "channel-request", pack({"quote": _quote_to_dict(quote), "dh": target_pub})
        )
        fields = unpack(request)
        delivered_quote = _quote_from_dict(fields["quote"])
        # The source fetches an AVR from IAS (WAN) and verifies it inside.
        net.transfer("ias-quote", pack({"quote": _quote_to_dict(delivered_quote)}), wan=True)
        avr = self.tb.ias.verify_quote(delivered_quote)
        source_pub, signature = app.library.control_call(
            control.source_open_channel, avr, fields["dh"]
        )
        answer = net.transfer("channel-answer", pack({"dh": source_pub, "sig": signature}))
        answer_fields = unpack(answer)
        target_app.library.control_call(
            control.target_complete_channel, answer_fields["dh"], answer_fields["sig"]
        )

    def transfer_checkpoint(self, app: HostApplication) -> bytes:
        """Ship the sealed checkpoint (the adversary sees ciphertext).

        With ``retry.chunk_bytes`` unset this is the seed protocol: one
        message under the ``"checkpoint"`` label.  Otherwise the envelope
        crosses as a resumable chunk stream (``"checkpoint-chunk"``):
        lost or corrupted chunks are retransmitted individually, and a
        partition pauses the stream — surviving chunks are never resent.
        """
        blob = app.library.last_checkpoint.envelope.to_bytes()
        if self.retry.chunk_bytes is None:
            return self.tb.network.transfer("checkpoint", blob)
        return self._transfer_chunked(blob)

    def _transfer_chunked(self, blob: bytes) -> bytes:
        net = self.tb.network
        frames = chunk_blob(blob, self.retry.chunk_bytes)
        reassembler = ChunkReassembler()
        if self.faults is not None:
            order = self.faults.chunk_send_order("checkpoint-chunk", len(frames))
        else:
            order = list(range(len(frames)))
        pending = order
        backoff = self.retry.base_backoff_ns
        for round_no in range(self.retry.max_transfer_rounds):
            failed: list[int] = []
            for seq in pending:
                try:
                    delivered = net.transfer("checkpoint-chunk", frames[seq])
                except LinkTimeout:
                    failed.append(seq)
                    continue
                except LinkPartitioned:
                    # The link is down: everything not yet delivered waits
                    # for the healing backoff below.
                    failed.extend(s for s in pending if s not in failed and s != seq)
                    failed.append(seq)
                    break
                try:
                    reassembler.accept(delivered)
                except ChunkError:
                    failed.append(seq)
            self.stats.duplicate_chunks_ignored = reassembler.duplicates_seen
            if reassembler.complete:
                return reassembler.assemble()
            # Resume: only what is still missing goes out again.
            pending = [s for s in failed if s in set(reassembler.missing())] or (
                reassembler.missing()
            )
            if round_no + 1 < self.retry.max_transfer_rounds:
                self.stats.chunk_retransmits += len(pending)
                self.tel.counter("migration.chunk_retransmits_total").inc(len(pending))
                self.tb.trace.emit(
                    "migration", "chunk_resend", n=len(pending), round=round_no + 1
                )
                self.tb.clock.advance(backoff)
                backoff = self.retry.next_backoff(backoff)
        raise LinkTimeout(
            f"checkpoint transfer incomplete after "
            f"{self.retry.max_transfer_rounds} rounds: missing {reassembler.missing()}"
        )

    def storage_pending(self, app: HostApplication) -> bool:
        """Negotiation: does the source have a sealed-storage namespace?

        Decided from the (untrusted) durable store's version counter —
        negotiation is an optimization, not a security decision: every
        freshness and single-lineage rule is enforced inside the enclaves
        regardless of what the orchestrator chooses to ship.  Enclaves
        without persistent state skip the step entirely, so their
        protocol (journal record counts included) is byte-identical to
        the pre-storage one.
        """
        durable = getattr(self.tb, "durable", None)
        if durable is None:
            return False
        ns = wal.storage_namespace(self.tb.source.name, app.image.name)
        return durable.counter(ns) > 0

    def handoff_storage(self, app: HostApplication, target_app: HostApplication) -> int:
        """The negotiated `handoff-storage` step: move the namespace.

        The source re-seals (table, version) under the channel session
        key with the channel sequence bound inside; the target re-binds
        it to its own EGETKEY key and counter bank.  Runs strictly before
        the key handoff — a failure here is still renegotiable, so the
        delivery loop re-raises transport faults instead of aborting.
        """
        sealed = app.library.control_call(control.source_export_storage)
        # Ciphertext under the session key, same trust story as the
        # checkpoint envelope: journaling it lets recovery redeliver.
        self._wal_append(wal.WAL_STORAGE, {"sealed": sealed})
        backoff = self.retry.base_backoff_ns
        last_exc: Exception | None = None
        for round_no in range(self.retry.max_transfer_rounds):
            if round_no:
                self.tel.counter("migration.storage_retransmits_total").inc()
                self.tb.trace.emit("migration", "storage_resend", round=round_no)
                self.tb.clock.advance(backoff)
                backoff = self.retry.next_backoff(backoff)
            try:
                delivered = self.tb.network.transfer("storage-handoff", sealed)
                version = target_app.library.control_call(
                    control.target_import_storage, delivered
                )
                self._wal_append(wal.WAL_STORAGE_DELIVERED, {"version": version})
                return version
            except (NetworkFault, IntegrityError, CryptoError, SerdeError) as exc:
                last_exc = exc
                if self.retry.max_attempts <= 1:
                    raise  # seed behaviour: no degraded-mode retries
        assert last_exc is not None
        raise last_exc  # pre-point-of-no-return: the attempt loop renegotiates

    def handoff_key(self, app: HostApplication, target_app: HostApplication) -> None:
        """K_migrate moves last; the source self-destroys (§V-B).

        ``source_release_key`` fires exactly once per migration — the
        point of no return.  Delivery of the resulting sealed blob is
        retried (same ciphertext; a replayed copy is useless to anyone
        without the session key) so a dropped or corrupted kmigrate
        message does not strand an otherwise complete migration.
        """
        sealed = app.library.control_call(control.source_release_key)
        self._key_released = True
        # The sealed blob is ciphertext under the session key; journaling
        # it lets recovery *redeliver* it after a crash, which is exactly
        # as harmless as the retransmission loop below.
        self._wal_append(wal.WAL_RELEASE, {"sealed": sealed})
        backoff = self.retry.base_backoff_ns
        last_exc: Exception | None = None
        for round_no in range(self.retry.max_transfer_rounds):
            if round_no:
                self.stats.key_retransmits += 1
                self.tel.counter("migration.key_retransmits_total").inc()
                self.tb.trace.emit("migration", "key_resend", round=round_no)
                self.tb.clock.advance(backoff)
                backoff = self.retry.next_backoff(backoff)
            try:
                delivered = self.tb.network.transfer("kmigrate", sealed)
                target_app.library.control_call(control.target_receive_key, delivered)
                self._key_delivered = True
                self._wal_append(wal.WAL_DELIVERED)
                return
            except (NetworkFault, IntegrityError, CryptoError, SerdeError) as exc:
                last_exc = exc
                if self.retry.max_attempts <= 1:
                    raise  # seed behaviour: no degraded-mode retries
        raise MigrationAborted(
            "K_migrate was released but could not be delivered; the source "
            "has self-destroyed and no live instance holds the key"
        ) from last_exc

    def restore(self, target_app: HostApplication, checkpoint_bytes: bytes) -> dict[int, int]:
        """Steps 3-4 on the target: restore, replay, verify, go live."""
        library = target_app.library
        plan = library.control_call(control.target_restore_memory, checkpoint_bytes)
        library.replay_cssa(plan)
        library.control_call(control.target_verify_and_finish, checkpoint_bytes)
        return plan

    def cancel(self, app: HostApplication) -> None:
        """Abort a migration before the key handoff; workers resume."""
        app.library.control_call(control.source_cancel_migration)
        app.library.last_checkpoint = None
        self._wal_append(wal.WAL_CANCEL)

    # ------------------------------------------------------------- full flow
    def migrate_enclave(self, app: HostApplication) -> EnclaveMigrationResult:
        """Migrate one enclave application source → target, end to end.

        With the default policy this is the seed's single-shot protocol.
        With retries enabled, transient faults are healed in place (see
        the step helpers) or by cancelling and renegotiating from
        scratch; exhausting every recovery raises
        :class:`MigrationAborted` with the invariants intact.
        """
        self._run_start_ns = self.tb.clock.now_ns
        with self.tel.span("migration.run", image=app.image.name) as run_span:
            # One trace id per migration run: every wire record sent while
            # this span is open carries it (see repro.telemetry.causal).
            self.tel.tracer.trace_id = f"mig-{run_span.span_id}"
            run_span.attrs["trace_id"] = self.tel.tracer.trace_id
            return self._run_migration(app)

    def _run_migration(self, app: HostApplication) -> EnclaveMigrationResult:
        self._key_released = False
        self._key_delivered = False
        self._source_crashed = False
        self._current_target = None
        self._wal = self._make_wal(app)
        self._wal_append(wal.WAL_BEGIN, {"image": app.image.name})
        monitor = getattr(self.tb, "monitor", None)
        if monitor is not None:
            self._lineage = monitor.register_lineage(app)
        if self.retry.max_attempts <= 1 and self.faults is None:
            return self._attempt_migration(app)

        bytes_before = self.tb.network.bytes_transferred
        backoff = self.retry.base_backoff_ns
        last_exc: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self.stats.attempts = attempt
            if attempt > 1:
                self.stats.retries += 1
                self.tel.counter("migration.retries_total").inc()
                self.tb.trace.emit("migration", "retry", attempt=attempt)
                self.tb.clock.advance(backoff)
                backoff = self.retry.next_backoff(backoff)
            try:
                return self._attempt_migration(app, bytes_baseline=bytes_before)
            except MigrationAborted:
                self._record_abort("aborted")
                raise
            except PartyCrash as exc:
                # A party crash ends the protocol run where it stands: no
                # cleanup, no retry — only journal-driven recovery may
                # touch the migration now.  Model the physical effect of
                # the crash (the party's volatile state is gone) and stop.
                self._apply_party_crash(exc, app)
                raise
            except MachineCrash as exc:
                last_exc = exc
                self.stats.crashes_seen += 1
                self.tel.counter("migration.crashes_seen_total", side=exc.side).inc()
                if exc.side == "source":
                    self._abort(
                        app,
                        f"source machine crashed at step {exc.step!r}; its "
                        "enclave cannot be rebuilt from volatile state",
                        cause=exc,
                    )
                if self._past_point_of_no_return():
                    self._abort(
                        app,
                        "target crashed after K_migrate was released; the key "
                        "is lost and the source has self-destroyed",
                        cause=exc,
                    )
                # Target crashed pre-release: renegotiate with a new target.
            except (SelfDestroyed, MigrationError, NetworkFault, ReproError) as exc:
                last_exc = exc
                if self._past_point_of_no_return() or isinstance(exc, SelfDestroyed):
                    self._abort(
                        app,
                        "migration failed after the point of no return "
                        f"({type(exc).__name__}: {exc})",
                        cause=exc,
                    )
        self._abort(
            app,
            f"gave up after {self.retry.max_attempts} attempts "
            f"({type(last_exc).__name__ if last_exc else 'unknown'}: {last_exc})",
            cause=last_exc,
        )
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------- attempt
    def _attempt_migration(
        self, app: HostApplication, bytes_baseline: int | None = None
    ) -> EnclaveMigrationResult:
        """One full pass of the protocol; cleans up its target on failure."""
        bytes_before = (
            self.tb.network.bytes_transferred if bytes_baseline is None else bytes_baseline
        )
        self.tel.counter("migration.attempts_total").inc()
        target_app: HostApplication | None = None
        try:
            with self.tel.span(
                "migration.attempt", attempt=max(self.stats.attempts, 1)
            ):
                # The stop-and-copy window: source workers quiesce at the
                # first checkpoint instruction and the application is only
                # live again once the target resumes — for the enclave
                # protocol the whole attempt *is* downtime.
                with self.tel.span("migration.stop_and_copy") as stop_and_copy:
                    with self.tel.span(
                        f"migration.step.{STEP_CHECKPOINT}", party="source"
                    ):
                        self._begin_step(app, STEP_CHECKPOINT)
                        if app.library.last_checkpoint is None:
                            self.checkpoint_enclave(app)
                        checkpoint = app.library.last_checkpoint
                        if checkpoint is None:  # pragma: no cover - guard
                            raise MigrationError("checkpoint generation failed")
                        self._wal_append(
                            wal.WAL_CHECKPOINT, {"sequence": checkpoint.sequence}
                        )

                    with self.tel.span(
                        f"migration.step.{STEP_BUILD_TARGET}", party="target"
                    ):
                        self._begin_step(app, STEP_BUILD_TARGET)
                        target_app = self.build_virgin_target(app)
                        self._current_target = target_app
                        self._wal_append(wal.WAL_TARGET_BUILT)
                    with self.tel.span(f"migration.step.{STEP_ESTABLISH_CHANNEL}"):
                        self._begin_step(app, STEP_ESTABLISH_CHANNEL)
                        self.establish_channel(app, target_app)
                        self._wal_append(wal.WAL_CHANNEL)
                    with self.tel.span(f"migration.step.{STEP_TRANSFER_CHECKPOINT}"):
                        self._begin_step(app, STEP_TRANSFER_CHECKPOINT)
                        delivered_checkpoint = self.transfer_checkpoint(app)
                        if self._wal is not None:
                            # The blob first, then the record naming it.
                            digest = self._wal.store.put_blob(delivered_checkpoint)
                            self._wal.append(wal.WAL_TRANSFERRED, {"blob": digest})
                    # Crash faults scheduled at this step must fire even
                    # for storageless enclaves (the step exists in the
                    # protocol grammar either way); only the span and the
                    # actual transfer are negotiated away.
                    self._begin_step(app, STEP_HANDOFF_STORAGE)
                    if self.storage_pending(app):
                        with self.tel.span(f"migration.step.{STEP_HANDOFF_STORAGE}"):
                            self.handoff_storage(app, target_app)
                    with self.tel.span(f"migration.step.{STEP_HANDOFF_KEY}"):
                        self._begin_step(app, STEP_HANDOFF_KEY)
                        self.handoff_key(app, target_app)
                    with self.tel.span(
                        f"migration.step.{STEP_RESTORE}", party="target"
                    ):
                        self._begin_step(app, STEP_RESTORE)
                        plan = self.restore(target_app, delivered_checkpoint)
                        self._wal_append(
                            wal.WAL_RESTORED,
                            {"plan": {str(k): v for k, v in plan.items()}},
                        )
                    with self.tel.span("migration.step.resume", party="target"):
                        target_app.respawn_after_restore(plan)
                        self.tb.target_os.end_migration()
                    self._wal_append(wal.WAL_DONE)
                transferred = self.tb.network.bytes_transferred - bytes_before
                self._record_figures(stop_and_copy, transferred)
            monitor = getattr(self.tb, "monitor", None)
            if monitor is not None and self._lineage is not None:
                monitor.join_lineage(self._lineage, target_app)
            return EnclaveMigrationResult(
                target_app=target_app,
                replay_plan=plan,
                checkpoint_bytes=checkpoint.envelope.size,
                transferred_bytes=transferred,
                attempts=max(self.stats.attempts, 1),
                stats=self.stats,
            )
        except PartyCrash:
            raise  # no graceful cleanup: the crash left things as they are
        except BaseException:
            if target_app is not None:
                self._destroy_target(target_app)
                self._current_target = None
            self._recover_source(app)
            raise

    def _begin_step(self, app: HostApplication, step: str) -> None:
        if self.faults is None:
            return
        try:
            self.faults.step_started(step)
        except MachineCrash as exc:
            if exc.side == "source" and self._key_delivered:
                # The key and checkpoint already live on the target; the
                # source is no longer needed.  Its machine dying now costs
                # nothing but the (already spent) source instance.
                self.stats.crashes_seen += 1
                self.tel.counter("migration.crashes_seen_total", side=exc.side).inc()
                self._crash_source(app)
                return
            if exc.side == "source":
                self._crash_source(app)
            raise

    # ------------------------------------------------------------- durability
    def _make_wal(self, app: HostApplication) -> Journal | None:
        durable = getattr(self.tb, "durable", None)
        if durable is None:
            return None
        return Journal(
            durable,
            wal.orchestrator_journal_name(
                app.image.name, getattr(self.tb, "wal_epoch", 0)
            ),
            wal.PARTY_ORCHESTRATOR,
        )

    def _wal_append(self, kind: str, payload: dict | None = None) -> None:
        if self._wal is not None:
            self._wal.append(kind, payload)

    def _apply_party_crash(self, exc: PartyCrash, app: HostApplication) -> None:
        """Model the physical consequence of a party's process dying.

        A source or target crash takes its enclave (EPC contents are
        volatile) and freezes its host process.  An orchestrator crash
        kills only the driver — both machines keep running, which is
        exactly why its journal has to be enough to finish the job.
        """
        self.stats.crashes_seen += 1
        self.tel.counter("migration.crashes_seen_total", side=exc.party).inc()
        if exc.party == wal.PARTY_SOURCE:
            self._halt_process(app)
            self._crash_source(app)
        elif exc.party == wal.PARTY_TARGET and self._current_target is not None:
            self._halt_process(self._current_target)
            try:
                self._current_target.destroy()
            except ReproError:
                pass

    def _halt_process(self, app: HostApplication) -> None:
        for thread in app.process.threads:
            thread.suspended = True

    # ------------------------------------------------------------- recovery
    def _past_point_of_no_return(self) -> bool:
        """Key released but not safely installed in a live target."""
        return self._key_released

    def _source_alive(self, app: HostApplication) -> bool:
        return app.library.enclave_id is not None and not self._source_crashed

    def _crash_source(self, app: HostApplication) -> None:
        self._source_crashed = True
        if app.library.enclave_id is not None:
            app.library.destroy()

    def _destroy_target(self, target_app: HostApplication) -> None:
        try:
            target_app.destroy()
        except ReproError:  # pragma: no cover - teardown is best-effort
            pass

    def _recover_source(self, app: HostApplication) -> None:
        """Return the source to service if (and only if) that is safe."""
        if not self._source_alive(app) or self._key_released:
            return
        try:
            self.cancel(app)
        except PartyCrash:
            raise  # a crash during cleanup is still a crash
        except ReproError:  # pragma: no cover - cancel is best-effort
            pass

    def _record_figures(self, stop_and_copy, transferred: int) -> None:
        """Publish the attempt's headline numbers to the registry.

        ``migration.downtime_ns`` is *defined* as the stop-and-copy span's
        duration — the exporters, the timeline, and the benchmarks all
        read the same value, so the figures can never drift apart.
        """
        self.tel.gauge("migration.downtime_ns").set(stop_and_copy.duration_ns)
        self.tel.gauge("migration.total_ns").set(
            self.tb.clock.now_ns - self._run_start_ns
        )
        self.tel.gauge("migration.transferred_bytes").set(transferred)
        self.tel.counter("migration.completed_total").inc()

    def _record_abort(self, reason: str) -> None:
        self.stats.aborts += 1
        self.tel.counter("migration.aborts_total").inc()
        self.tb.trace.emit("migration", "abort", reason=reason)
        self._wal_append(wal.WAL_ABORT, {"reason": reason})

    def _abort(self, app: HostApplication, reason: str, cause: Exception | None) -> None:
        """Give up cleanly: no half-built target, no resurrectable source."""
        self._record_abort(reason)
        raise MigrationAborted(reason) from cause


def _quote_to_dict(quote: Quote) -> dict:
    return {
        "mrenclave": quote.mrenclave,
        "mrsigner": quote.mrsigner,
        "attributes": quote.attributes,
        "platform_id": quote.platform_id,
        "report_data": quote.report_data,
        "signature": quote.signature,
    }


def _quote_from_dict(fields: dict) -> Quote:
    return Quote(
        mrenclave=fields["mrenclave"],
        mrsigner=fields["mrsigner"],
        attributes=fields["attributes"],
        platform_id=fields["platform_id"],
        report_data=fields["report_data"],
        signature=fields["signature"],
    )
