"""Crash-point sweep: every party, every journal-record boundary.

The write-ahead journals turn "crash at an arbitrary instant" into a
finite experiment: between two adjacent committed records nothing durable
changes, so crashing a party immediately after each record it commits
visits *every* distinguishable crash window.  For each point the sweep
runs the migration with a :class:`~repro.faults.plan.RecordCrashFault`,
lets :class:`~repro.durability.recovery.MigrationRecovery` drive the
system to rest, and checks the safety contract:

* exactly one live instance, **or** a clean abort with zero — never two;
* a SPENT source never executes again (the invariant monitor watches);
* whatever instance survives still holds the pre-migration state.

:func:`chaos_soak` composes the same crash faults with the wire faults
of PR 1 (drop / duplicate / corrupt / delay / reorder / partition) into
seeded random schedules, so crashes land *inside* degraded-mode retries
and recoveries run over a still-hostile network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability import wal
from repro.durability.recovery import MAX_RECOVERIES, recover_until_rest
from repro.errors import (
    InvariantViolation,
    MigrationAborted,
    MigrationError,
    PartyCrash,
    ReproError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import MessageFault, FaultPlan
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MigrationOrchestrator,
    MigrationRun,
)
from repro.migration.protocol import AGENT_STEPS, STEP_ESCROW_KEY
from repro.migration.testbed import Testbed, build_testbed
from repro.sdk import control
from repro.sdk.host import HostApplication
from repro.sdk.program import AtomicEntry, EnclaveProgram
from repro.sim.rng import DeterministicRng

#: The counter value every surviving instance must still report.
COUNTER_START = 7
#: With sealed storage on, the one entry every survivor must still read.
STORAGE_NOTE = ("cli-note", "survives crashes")

#: Wire labels the chaos soak aims its message faults at.
CHAOS_LABELS = ("channel-request", "channel-answer", "checkpoint-chunk", "kmigrate")
CHAOS_KINDS = ("drop", "duplicate", "corrupt", "delay", "reorder")


@dataclass
class CrashPointResult:
    """One crash point's end state, as the sweep judged it."""

    party: str
    record: int
    #: ``completed`` / ``aborted`` / ``recovered:<recovery outcome>``.
    outcome: str
    live_instances: int
    #: The survivor still reads ``COUNTER_START`` (and the storage note).
    counter_ok: bool
    violations: list[str] = field(default_factory=list)
    #: ``"source:2+target:3"`` when this point was a crash pair/chain.
    pair: str = ""
    #: How many recovery drives the plan forced (0 for a clean run).
    recoveries: int = 0
    #: Virtual time spent inside recovery, first crash to rest.
    recovery_ns: int = 0

    @property
    def safe(self) -> bool:
        return (
            self.live_instances in (0, 1)
            and self.counter_ok
            and not self.violations
        )


def _sweep_program() -> EnclaveProgram:
    program = EnclaveProgram("repro/sweep-counter-v1")

    def incr(rt, args):
        value = rt.load_global("n") + int(1 if args is None else args)
        rt.store_global("n", value)
        return value

    program.add_entry("incr", AtomicEntry(incr))
    program.add_entry("read", AtomicEntry(lambda rt, args: rt.load_global("n")))
    return program


def build_sweep_app(tb: Testbed, storage: bool = False) -> HostApplication:
    """The standard sweep subject: a counter enclave at ``COUNTER_START``,
    holding :data:`STORAGE_NOTE` in sealed storage when ``storage``."""
    built = tb.builder.build(
        "sweep-counter", _sweep_program(), n_workers=1, global_names=("n",)
    )
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image, [], owner=tb.owner
    ).launch()
    app.ecall_once(0, "incr", COUNTER_START)
    if storage:
        app.library.control_call(control.storage_put, *STORAGE_NOTE)
    return app


def _state_ok(app: HostApplication, storage: bool) -> bool:
    try:
        return app.ecall_once(0, "read") == COUNTER_START and (
            not storage
            or app.library.control_call(control.storage_get, STORAGE_NOTE[0])
            == STORAGE_NOTE[1]
        )
    except ReproError:
        return False


def reference_record_counts(seed: int | str = 0, storage: bool = False) -> dict[str, int]:
    """Clean-run journal lengths per party: the sweep's crash-point axis."""
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb, storage)
    MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY).migrate_enclave(app)
    image = app.image.name
    return {
        wal.PARTY_ORCHESTRATOR: tb.durable.counter(
            wal.orchestrator_journal_name(image)
        ),
        wal.PARTY_SOURCE: tb.durable.counter(
            wal.enclave_journal_name("source", image)
        ),
        wal.PARTY_TARGET: tb.durable.counter(
            wal.enclave_journal_name("target", image)
        ),
    }


def run_crash_point(
    party: str, record: int, seed: int | str = 0, storage: bool = False
) -> CrashPointResult:
    """Crash ``party`` right after its ``record``-th commit; recover; judge."""
    plan = FaultPlan(seed=seed).crash_at_record(party, record)
    return _run_plan(plan, party=party, record=record, seed=seed, storage=storage)


def sweep(
    seed: int | str = 0,
    parties: tuple[str, ...] = (
        wal.PARTY_ORCHESTRATOR,
        wal.PARTY_SOURCE,
        wal.PARTY_TARGET,
    ),
    storage: bool = False,
) -> list[CrashPointResult]:
    """Visit every (party, record boundary) crash point of a migration.

    Each point builds its own testbed and shares nothing; points run in
    party order, then record order.  ``storage`` migrates a
    sealed-storage namespace too (the negotiated ``handoff-storage``
    step).
    """
    reference = reference_record_counts(seed, storage)
    return [
        run_crash_point(party, record, seed=seed, storage=storage)
        for party in parties
        for record in range(1, reference[party] + 1)
    ]


# ---------------------------------------------------------------------------
# Crash pairs: a second crash lands inside the first recovery
# ---------------------------------------------------------------------------

def run_crash_pair(
    first: tuple[str, int],
    second: tuple[str, int],
    seed: int | str = 0,
) -> CrashPointResult:
    """Crash ``first`` mid-migration, then ``second`` mid-recovery.

    The second :class:`~repro.faults.plan.RecordCrashFault` counts that
    party's commits from process start, so it fires during whichever
    drive (original run or recovery) reaches the record number — for
    small record numbers that is the recovery re-drive.
    """
    plan = (
        FaultPlan(seed=seed)
        .crash_at_record(first[0], first[1])
        .crash_at_record(second[0], second[1])
    )
    pair = f"{first[0]}:{first[1]}+{second[0]}:{second[1]}"
    return _run_plan(plan, party=first[0], record=first[1], seed=seed, pair=pair)


def sweep_pairs(
    seed: int | str = 0,
    parties: tuple[str, ...] = (
        wal.PARTY_ORCHESTRATOR,
        wal.PARTY_SOURCE,
        wal.PARTY_TARGET,
    ),
    stride: int = 2,
    limit: int | None = None,
) -> list[CrashPointResult]:
    """A sampled sweep over (first crash, second crash) pairs.

    The full pair matrix is quadratic in journal length, so this visits
    every ``stride``-th record on each axis (``stride=1`` for the full
    matrix) and optionally truncates at ``limit`` points.  Pair order is
    deterministic, so a sampled prefix is a stable subset.
    """
    reference = reference_record_counts(seed)
    pairs = [
        ((party_a, rec_a), (party_b, rec_b))
        for party_a in parties
        for rec_a in range(1, reference[party_a] + 1, stride)
        for party_b in parties
        for rec_b in range(1, reference[party_b] + 1, stride)
    ]
    return [run_crash_pair(first, second, seed=seed) for first, second in pairs[:limit]]


# ---------------------------------------------------------------------------
# One plan, one verdict (shared by the sweep and the chaos soak)
# ---------------------------------------------------------------------------

def _run_plan(
    plan: FaultPlan,
    party: str = "",
    record: int = 0,
    seed: int | str = 0,
    pair: str = "",
    storage: bool = False,
) -> CrashPointResult:
    tb = build_testbed(seed=seed)
    app = build_sweep_app(tb, storage)
    orch = MigrationOrchestrator(
        tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
    )
    live_app: HostApplication | None = None
    recoveries = 0
    recovery_ns = 0
    try:
        result = orch.migrate_enclave(app)
        outcome, live_app = "completed", result.target_app
    except MigrationAborted:
        # A clean abort pre-release leaves the source back in service; an
        # abort past the point of no return leaves nothing alive.
        outcome = "aborted"
        if app.library.enclave_id is not None:
            live_app = app
    except PartyCrash:
        recovery_started_ns = tb.clock.now_ns
        report, recoveries, _ = recover_until_rest(tb, app, orchestrator=orch)
        if report is None:
            outcome = "wedged"
        else:
            outcome = f"recovered:{report.outcome}"
            if report.live_instances:
                live_app = (
                    report.target_app if report.target_app is not None else app
                )
        recovery_ns = tb.clock.now_ns - recovery_started_ns

    violations = _drain_monitor(tb)
    if outcome == "wedged":
        violations = ["recovery did not converge within "
                      f"{MAX_RECOVERIES} drives"] + violations
    live = _live_count(tb, app, live_app)
    return CrashPointResult(
        party=party,
        record=record,
        outcome=outcome,
        live_instances=live,
        counter_ok=live_app is None or _state_ok(live_app, storage),
        violations=violations,
        pair=pair,
        recoveries=recoveries,
        recovery_ns=recovery_ns,
    )


def _drain_monitor(tb: Testbed) -> list[str]:
    try:
        tb.monitor.check_now()
    except InvariantViolation:
        pass
    return list(tb.monitor.violations)


def _live_count(
    tb: Testbed, app: HostApplication, live_app: HostApplication | None
) -> int:
    if tb.monitor.lineage_of(app) is not None:
        return tb.monitor.lineage_live_count(app)
    return 0 if live_app is None else 1


# ---------------------------------------------------------------------------
# Agent crash points (§VI-D escrow, exactly-once across crashes)
# ---------------------------------------------------------------------------

def run_agent_crash_point(record: int, seed: int | str = 0) -> CrashPointResult:
    """Crash the agent after its ``record``-th commit, recover, re-drive.

    Record 1 is the ``escrow`` commit: recovery reloads the entry and the
    release proceeds — the migration completes.  Record 2 is the
    ``escrow-release`` commit: the entry recovers as *released*, a second
    release is refused, and the run ends as a clean abort with zero live
    instances (the source self-destroyed at escrow time) — exactly-once
    beats availability.
    """
    from repro.migration.agent import AgentService, build_agent_image

    tb = build_testbed(seed=seed)
    agent_built = build_agent_image(tb.builder)
    tb.owner.set_agent_image(agent_built)
    app = build_sweep_app(tb)
    agent = AgentService(tb, agent_built)
    plan = FaultPlan(seed=seed).crash_at_record(wal.PARTY_AGENT, record)
    FaultInjector(plan).attach(tb)

    orch = MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY)
    run = MigrationRun(app, agent=agent)
    outcome = "completed"
    try:
        orch.run_steps(run, AGENT_STEPS)
    except PartyCrash:
        agent.recover()
        # The agent commits before it answers, so the escrow survived
        # even a crash inside its row; run on from the first unproven row.
        run.proven.add(STEP_ESCROW_KEY)
        try:
            orch.run_steps(run, tuple(s for s in AGENT_STEPS if s.name not in run.proven))
        except MigrationError:
            # The journaled release survived too: refuse, abort.
            orch.rollback(run)
            outcome = "aborted"
    live_app = run.target if outcome == "completed" else None
    return CrashPointResult(
        party=wal.PARTY_AGENT,
        record=record,
        outcome=outcome,
        live_instances=0 if live_app is None else 1,
        counter_ok=live_app is None or _state_ok(live_app, storage=False),
        violations=_drain_monitor(tb),
    )


# ---------------------------------------------------------------------------
# Chaos soak: crashes inside a hostile network
# ---------------------------------------------------------------------------

def chaos_soak(seed: int | str = 0, iterations: int = 6) -> list[CrashPointResult]:
    """Seeded random schedules mixing record crashes with wire faults.

    Every iteration must end safe (``CrashPointResult.safe``); the caller
    asserts that.  The plans are fully determined by ``seed``, so a
    failing iteration replays exactly.
    """
    reference = reference_record_counts(seed)
    rng = DeterministicRng(seed).fork("chaos-soak")
    results = []
    for iteration in range(iterations):
        plan = FaultPlan(seed=f"{seed}/soak/{iteration}")
        for _ in range(rng.randint(0, 2)):
            label = rng.choice(CHAOS_LABELS)
            nth = rng.randint(1, 3) if label == "checkpoint-chunk" else 1
            plan.message_faults.append(
                MessageFault(rng.choice(CHAOS_KINDS), label, nth)
            )
        if rng.random() < 0.25:
            plan.partition(duration_ns=rng.randint(4, 24) * 1_000_000)
        party = rng.choice(tuple(reference))
        crash_record = rng.randint(1, reference[party])
        plan.crash_at_record(party, crash_record)
        result = _run_plan(plan, party=party, record=crash_record, seed=seed)
        results.append(result)
    return results
