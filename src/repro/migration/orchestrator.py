"""Migration orchestration: the untrusted glue between both machines.

The orchestrator is the cloud operator's tooling: it moves messages, asks
IAS for verification reports, and pokes both SGX libraries — but it is
*outside* the TCB.  Every security-relevant decision (who gets the key,
whether the checkpoint is intact, whether the replayed CSSA is right) is
made inside the enclaves by :mod:`repro.sdk.control`; a hostile
orchestrator can only cause the protocol to abort, never to leak or fork.

The flow implements §III's three operations with §V's defenses as the
rows of one table, :data:`repro.migration.protocol.STEPS`: checkpoint,
virgin target, attested channel, checkpoint transfer, the negotiated
storage handoff, K_migrate last with source self-destroy, restore (the
library replays CSSA, the control thread verifies and goes live) and
resume.  :meth:`MigrationOrchestrator.run_steps` is the one runner of
that table — forward runs, whole-VM runs and crash recovery alike — and
:meth:`MigrationOrchestrator.rollback` undoes a failed run from it.

Degraded-mode operation (the failure-handling layer added around that
flow) is a retry/abort state machine whose rules keep the paper's
invariants intact under arbitrary infrastructure faults:

* Any failure *before* ``source_release_key`` is recoverable: the
  rollback cancels the source (wiping K_migrate, resuming its workers)
  and destroys the half-built target, and the retry renegotiates
  everything — new checkpoint, new K_migrate, new attested channel —
  from scratch.
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

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

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
from repro.migration.checkpoint import (
    DEFAULT_CHUNK_BYTES,
    ChunkReassembler,
    chunk_count,
    chunk_frame,
)
from repro.migration.protocol import (
    STEP_BUILD_TARGET,
    STEP_CHECKPOINT,
    STEP_ESCROW_KEY,
    STEP_ESTABLISH_CHANNEL,
    STEP_HANDOFF_KEY,
    STEP_HANDOFF_STORAGE,
    STEP_RELEASE_KEY,
    STEP_RESTORE,
    STEP_RESUME,
    STEP_TRANSFER_CHECKPOINT,
    STEPS,
    Step,
)
from repro.migration.testbed import Testbed
from repro.sim.engine import EngineStall
from repro.sdk import control
from repro.sdk.host import HostApplication, WorkerSpec
from repro.serde import SerdeError, pack, unpack
from repro.sgx.structures import Quote

if TYPE_CHECKING:  # pragma: no cover
    from repro.migration.agent import AgentService

#: Degraded-mode delivery: a resent blob waits :func:`backoff_ns` on the
#: virtual clock before each resend, for at most ``MAX_TRANSFER_ROUNDS``
#: rounds (the chunk stream, the sealed storage table, the sealed key).
BASE_BACKOFF_NS = 8_000_000
BACKOFF_MULTIPLIER = 2
MAX_TRANSFER_ROUNDS = 5


def backoff_ns(k: int) -> int:
    """The virtual wait before the ``k``-th resend or retry (``k >= 1``):
    ``BASE_BACKOFF_NS``, doubling with each one (8, 16, 32, 64 ms)."""
    return BASE_BACKOFF_NS * BACKOFF_MULTIPLIER ** (k - 1)


#: What a resend can heal: the wire lost or mangled the blob.
_DELIVERY_FAULTS = (NetworkFault, IntegrityError, CryptoError, SerdeError)


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
    #: Engine-round budget for any single engine-driven step (the fix
    #: for the previously unbounded ``checkpoint_enclave`` wait).
    max_step_rounds: int = 2_000_000
    #: Chunk size for the resumable checkpoint transfer; ``None`` ships
    #: the envelope in one message exactly like the seed protocol.
    chunk_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive (or None)")

    @property
    def single_shot(self) -> bool:
        """One attempt: the first fault reaches the caller as itself."""
        return self.max_attempts <= 1

    def deliver(self, testbed, label, payload, resent, install=None, wan=False, abort=None):
        """Send ``payload`` until ``install`` accepts what arrives.

        Each round resends the same bytes (ciphertext only the receiving
        enclave can open) after a backoff; ``resent(round)`` reports it.
        Returns ``install``'s result, or the delivered bytes.  Single-shot
        re-raises the first fault; otherwise the last one is re-raised
        after the last round — or :class:`MigrationAborted` (``abort``).
        """
        for round_no in range(MAX_TRANSFER_ROUNDS):
            if round_no:
                resent(round_no)
                testbed.clock.advance(backoff_ns(round_no))
            try:
                delivered = testbed.network.transfer(label, payload, wan=wan)
                return delivered if install is None else install(delivered)
            except _DELIVERY_FAULTS as exc:
                if self.single_shot:
                    raise
                last_exc = exc
        if abort is not None:
            raise MigrationAborted(abort) from last_exc
        raise last_exc


#: The preset used by the fault matrix and the CLI's degraded-mode demo.
FAULT_TOLERANT_RETRY = RetryPolicy(
    max_attempts=5,
    max_step_rounds=2_000_000,
    chunk_bytes=DEFAULT_CHUNK_BYTES,
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
        return asdict(self)


@dataclass
class EnclaveMigrationResult:
    """Outcome of migrating one enclave application."""

    target_app: HostApplication
    replay_plan: dict[int, int]
    checkpoint_bytes: int
    transferred_bytes: int
    attempts: int = 1
    stats: MigrationStats = field(default_factory=MigrationStats)


@dataclass
class MigrationRun:
    """One run of the protocol table: what its steps read and write.

    A forward attempt starts empty; crash recovery fills it from the
    journals (the sealed key, the delivered envelope, the replay plan)
    and runs on from where the crashed run stood.
    """

    app: HostApplication
    target: HostApplication | None = None
    #: The orchestrator WAL this run journals to; ``None`` journals nothing.
    wal: Journal | None = None
    checkpoint: control.CheckpointResult | None = None
    #: The sealed checkpoint envelope as the target received it; ``None``
    #: on a whole-VM run, whose checkpoint rode in the pre-copied RAM.
    delivered: bytes | None = None
    #: K_migrate sealed for the target or its agent, once the source released it.
    sealed_key: bytes | None = None
    plan: dict[int, int] | None = None
    #: Names of the steps this run has completed.
    proven: set[str] = field(default_factory=set)
    #: The target's agent enclave on the §VI-D path.
    agent: AgentService | None = None

    @property
    def released(self) -> bool:
        """Past the point of no return: the source is SPENT."""
        return self.sealed_key is not None


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
        #: The run being driven; crash recovery reads its target.
        self.run: MigrationRun | None = None
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
        """Step-1: same image, fresh enclave, on the target machine.

        The target journals under this run's epoch (``wal_epoch``).
        """
        target_app = HostApplication(
            self.tb.target,
            self.tb.target_os,
            app.image,
            app.workers,
            owner=None,  # no user involvement during migration (§III)
            name=f"{app.image.name}-migrated",
            journal_epoch=self.tb.wal_epoch,
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
        request = net.transfer("channel-request", pack({"quote": asdict(quote), "dh": target_pub}))
        fields = unpack(request)
        delivered_quote = Quote(**fields["quote"])
        # The source fetches an AVR from IAS (WAN) and verifies it inside.
        net.transfer("ias-quote", pack({"quote": asdict(delivered_quote)}), wan=True)
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
        What ships is the wire form the source's seal built, as it is.
        """
        blob = app.library.last_checkpoint.wire
        if self.retry.chunk_bytes is None:
            return self.tb.network.transfer("checkpoint", blob)
        return self._transfer_chunked(blob)

    def _transfer_chunked(self, blob: bytes) -> bytes:
        """Frames are built as they are sent.  When every accepted chunk
        carries the sent bytes at its offset, the sealed wire itself is
        handed on (see :class:`ChunkReassembler`); a chunk the wire
        changed makes the delivered bytes be assembled instead."""
        net = self.tb.network
        n_chunks = chunk_count(len(blob), self.retry.chunk_bytes)
        reassembler = ChunkReassembler(sent=blob)
        if self.faults is not None:
            order = self.faults.chunk_send_order("checkpoint-chunk", n_chunks)
        else:
            order = list(range(n_chunks))
        pending = order
        for round_no in range(MAX_TRANSFER_ROUNDS):
            failed: list[int] = []
            for seq in pending:
                frame = chunk_frame(blob, seq, self.retry.chunk_bytes)
                try:
                    delivered = net.transfer("checkpoint-chunk", frame)
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
            if round_no + 1 < MAX_TRANSFER_ROUNDS:
                self.stats.chunk_retransmits += len(pending)
                self.tel.counter("migration.chunk_retransmits_total").inc(len(pending))
                self.tb.trace.emit(
                    "migration", "chunk_resend", n=len(pending), round=round_no + 1
                )
                self.tb.clock.advance(backoff_ns(round_no + 1))
        raise LinkTimeout(
            f"checkpoint transfer incomplete after "
            f"{MAX_TRANSFER_ROUNDS} rounds: missing {reassembler.missing()}"
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
        ns = wal.storage_namespace(self.tb.source.name, app.image.name)
        return self.tb.durable.counter(ns) > 0

    def handoff_storage(self, app: HostApplication, target_app: HostApplication) -> int:
        """The negotiated `handoff-storage` step: move the namespace.

        The source re-seals (table, version) under the channel session
        key with the channel sequence bound inside; the target re-binds
        it to its own EGETKEY key and counter bank.  Runs strictly before
        the key handoff — a failure here is still renegotiable, so the
        last transport fault goes back to the attempt loop.
        """
        sealed = app.library.control_call(control.source_export_storage)
        # Ciphertext under the session key, same trust story as the
        # checkpoint envelope: journaling it lets recovery redeliver.
        self._wal_append(wal.WAL_STORAGE, {"sealed": sealed})

        def resent(round_no: int) -> None:
            self.tel.counter("migration.storage_retransmits_total").inc()
            self.tb.trace.emit("migration", "storage_resend", round=round_no)

        return self.retry.deliver(
            self.tb,
            "storage-handoff",
            sealed,
            resent,
            lambda delivered: target_app.library.control_call(
                control.target_import_storage, delivered
            ),
        )

    def restore(self, target_app: HostApplication, checkpoint_bytes: bytes) -> dict[int, int]:
        """Steps 3-4 on the target: restore, replay, verify, go live."""
        library = target_app.library
        plan = library.control_call(control.target_restore_memory, checkpoint_bytes)
        library.replay_cssa(plan)
        library.control_call(control.target_verify_and_finish)
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
        journal = Journal(
            self.tb.durable,
            wal.orchestrator_journal_name(app.image.name, self.tb.wal_epoch),
            wal.PARTY_ORCHESTRATOR,
        )
        journal.append(wal.WAL_BEGIN, {"image": app.image.name})
        self._lineage = self.tb.monitor.register_lineage(app)
        if self.retry.single_shot and self.faults is None:
            return self._attempt(app, journal)

        bytes_before = self.tb.network.bytes_transferred
        last_exc: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self.stats.attempts = attempt
            if attempt > 1:
                self.stats.retries += 1
                self.tel.counter("migration.retries_total").inc()
                self.tb.trace.emit("migration", "retry", attempt=attempt)
                self.tb.clock.advance(backoff_ns(attempt - 1))
            try:
                return self._attempt(app, journal, bytes_baseline=bytes_before)
            except MigrationAborted:
                self._record_abort("aborted")
                raise
            except PartyCrash:
                # The run ends where it stands (the runner applied the
                # crash's effect): only journal-driven recovery goes on.
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
                if self.run.released:
                    self._abort(
                        app,
                        "target crashed after K_migrate was released; the key "
                        "is lost and the source has self-destroyed",
                        cause=exc,
                    )
                # Target crashed pre-release: renegotiate with a new target.
            except (SelfDestroyed, MigrationError, NetworkFault, ReproError) as exc:
                last_exc = exc
                if self.run.released or isinstance(exc, SelfDestroyed):
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
    def _attempt(
        self, app: HostApplication, journal: Journal, bytes_baseline: int | None = None
    ) -> EnclaveMigrationResult:
        """One full pass of the protocol table; rolled back on failure."""
        bytes_before = (
            self.tb.network.bytes_transferred if bytes_baseline is None else bytes_baseline
        )
        self.tel.counter("migration.attempts_total").inc()
        run = self.run = MigrationRun(app, wal=journal)
        try:
            with self.tel.span(
                "migration.attempt", attempt=max(self.stats.attempts, 1)
            ):
                # The stop-and-copy window: source workers quiesce at the
                # first checkpoint instruction and the application is only
                # live again once the target resumes — for the enclave
                # protocol the whole attempt *is* downtime.
                with self.tel.span("migration.stop_and_copy") as stop_and_copy:
                    self.run_steps(run)
                transferred = self.tb.network.bytes_transferred - bytes_before
                self._record_figures(stop_and_copy, transferred)
        except PartyCrash:
            raise  # the crash left things as they are: recovery's job
        except Exception:
            self.rollback(run)
            raise
        self.tb.monitor.join_lineage(self._lineage, run.target)
        return EnclaveMigrationResult(
            target_app=run.target,
            replay_plan=run.plan,
            checkpoint_bytes=run.checkpoint.envelope.size,
            transferred_bytes=transferred,
            attempts=max(self.stats.attempts, 1),
            stats=self.stats,
        )

    # ------------------------------------------------------------- runner
    def run_steps(self, run: MigrationRun, steps: tuple[Step, ...] = STEPS) -> None:
        """Drive ``run`` through ``steps`` of the protocol table, in order.

        Each step's ``migration.step.<name>`` span, crash point, forward
        action and proof record happen here and nowhere else, and a
        :class:`PartyCrash` takes its physical effect here wherever it
        lands — in a forward run and in crash recovery alike.
        """
        self.run = run
        with self._crash_effects(run):
            for step in steps:
                self._run_step(step, run)

    def _run_step(self, step: Step, run: MigrationRun) -> None:
        if step.negotiated:
            # The crash point fires for every enclave; only the span and
            # the work are negotiated away when there is nothing to move.
            self._begin_step(run, step.name)
            if not self.storage_pending(run.app):
                return
        with self.tel.span(f"migration.step.{step.name}", party=step.party):
            if not step.negotiated:
                self._begin_step(run, step.name)
            proof = _ACTIONS[step.name][0](self, run)
            if step.proof is not None and step.name != STEP_RESUME:
                self._wal_append(step.proof, proof)
        if step.name == STEP_RESUME:
            self._wal_append(step.proof)  # `done` closes the run, outside its span
        run.proven.add(step.name)

    def rollback(self, run: MigrationRun) -> None:
        """Undo ``run``: every step's rollback, last step first.

        A rollback with nothing to undo is a no-op, and past the point of
        no return only the target goes — a SPENT source stays SPENT.
        Rollbacks are best effort, but a crash during one is still a
        crash.
        """
        self.run = run
        with self._crash_effects(run):
            for step in reversed(STEPS):
                undo = _ACTIONS[step.name][1]
                if undo is None:
                    continue
                try:
                    undo(self, run)
                except PartyCrash:
                    raise
                except ReproError:  # pragma: no cover - rollback is best-effort
                    pass

    def _begin_step(self, run: MigrationRun, step: str) -> None:
        if self.faults is None:
            return
        try:
            self.faults.step_started(step)
        except MachineCrash as exc:
            if exc.side == "source" and STEP_HANDOFF_KEY in run.proven:
                # The key and checkpoint already live on the target; the
                # source is no longer needed.  Its machine dying now costs
                # nothing but the (already spent) source instance.
                self.stats.crashes_seen += 1
                self.tel.counter("migration.crashes_seen_total", side=exc.side).inc()
                run.app.destroy()
                return
            if exc.side == "source":
                run.app.destroy()
            raise

    @contextmanager
    def _crash_effects(self, run: MigrationRun):
        """Model the physical consequence of a party's process dying.

        A source, target or agent crash takes its enclave (EPC contents
        are volatile) and freezes its host process; the party is the one
        whose journal committed the record.  An orchestrator crash kills
        only the driver — both machines keep running, which is exactly why
        its journal has to be enough to finish the job.
        """
        try:
            yield
        except PartyCrash as exc:
            self.stats.crashes_seen += 1
            self.tel.counter("migration.crashes_seen_total", side=exc.party).inc()
            for app in (run.app, run.target, run.agent and run.agent.app):
                if app is not None and app.library.journal.party == exc.party:
                    for thread in app.process.threads:
                        thread.suspended = True
                    app.destroy()
            raise

    # ------------------------------------------------------------- durability
    def _wal_append(self, kind: str, payload: dict | None = None) -> None:
        if self.run is not None and self.run.wal is not None:
            self.run.wal.append(kind, payload)

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


# ---------------------------------------------------------------------------
# The protocol table's actions: per row of repro.migration.protocol's
# tables, a forward action (runs the step through the public step methods
# and returns its proof record's payload) and a rollback, if it has one.
# ---------------------------------------------------------------------------


def _checkpoint(orch: MigrationOrchestrator, run: MigrationRun) -> dict:
    library = run.app.library
    if library.last_checkpoint is None:
        orch.checkpoint_enclave(run.app)
    run.checkpoint = library.last_checkpoint
    if run.checkpoint is None:  # pragma: no cover - guard
        raise MigrationError("checkpoint generation failed")
    return {"sequence": run.checkpoint.sequence}


def _build_target(orch: MigrationOrchestrator, run: MigrationRun) -> None:
    run.target = orch.build_virgin_target(run.app)


def _transfer_checkpoint(orch: MigrationOrchestrator, run: MigrationRun) -> dict | None:
    run.delivered = orch.transfer_checkpoint(run.app)
    if run.wal is None:
        return None
    # The blob first, then the record naming it.  Bytes equal to what the
    # source's journal stored are named by its digest, not hashed again;
    # anything else the wire delivered is stored under its own.
    store, sent = run.wal.store, run.checkpoint
    if sent.blob in store and run.delivered == sent.wire:
        return {"blob": sent.blob}
    return {"blob": store.put_blob(run.delivered)}


def _handoff_key(orch: MigrationOrchestrator, run: MigrationRun) -> None:
    """K_migrate moves last and the source self-destroys (§V-B)."""
    if run.sealed_key is None:  # recovery resumes with the journaled blob
        run.sealed_key = run.app.library.control_call(control.source_release_key)
        # The sealed blob is ciphertext under the session key; journaling
        # it lets recovery *redeliver* it, which is exactly as harmless as
        # a retransmission.
        orch._wal_append(wal.WAL_RELEASE, {"sealed": run.sealed_key})
    target = run.target

    def resent(round_no: int) -> None:
        orch.stats.key_retransmits += 1
        orch.tel.counter("migration.key_retransmits_total").inc()
        orch.tb.trace.emit("migration", "key_resend", round=round_no)

    orch.retry.deliver(
        orch.tb,
        "kmigrate",
        run.sealed_key,
        resent,
        lambda delivered: target.library.control_call(
            control.target_receive_key, delivered
        ),
        abort="K_migrate was released but could not be delivered; the source "
        "has self-destroyed and no live instance holds the key",
    )


def _restore(orch: MigrationOrchestrator, run: MigrationRun) -> dict:
    # No row delivers a whole-VM run's checkpoint: it rode in the guest RAM.
    run.plan = orch.restore(run.target, run.delivered or run.checkpoint.wire)
    return {"plan": {str(k): v for k, v in run.plan.items()}}


def _resume(orch: MigrationOrchestrator, run: MigrationRun) -> None:
    run.target.respawn_after_restore(run.plan)
    run.target.guest_os.end_migration()


def _cancel_source(orch: MigrationOrchestrator, run: MigrationRun) -> None:
    if not run.released and run.app.library.enclave_id is not None:
        orch.cancel(run.app)  # a live, unspent source goes back to service


def _escrow_key(orch: MigrationOrchestrator, run: MigrationRun) -> None:
    run.sealed_key = run.agent.escrow_from(run.app)


#: Step name → (forward action, rollback or ``None``).
_ACTIONS = {
    STEP_CHECKPOINT: (_checkpoint, _cancel_source),
    STEP_BUILD_TARGET: (_build_target, lambda orch, run: run.target and run.target.destroy()),
    STEP_ESTABLISH_CHANNEL: (
        lambda orch, run: orch.establish_channel(run.app, run.target),
        None,
    ),
    STEP_TRANSFER_CHECKPOINT: (_transfer_checkpoint, None),
    STEP_HANDOFF_STORAGE: (
        lambda orch, run: {"version": orch.handoff_storage(run.app, run.target)},
        None,
    ),
    STEP_HANDOFF_KEY: (_handoff_key, None),
    STEP_ESCROW_KEY: (_escrow_key, None),
    STEP_RELEASE_KEY: (lambda orch, run: run.agent.release_to(run.target), None),
    STEP_RESTORE: (_restore, None),
    STEP_RESUME: (_resume, None),
}
