"""Timeline reconstruction: golden phase ordering and span well-nesting."""

import pytest

from repro.errors import MigrationAborted, PartyCrash
from repro.faults import FaultInjector, FaultPlan, MessageFault
from repro.faults.plan import PROTOCOL_STEPS, STEP_HANDOFF_STORAGE
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.protocol import CUT_OVER, VM_STEPS, steps_before, steps_from
from repro.migration.testbed import build_testbed
from repro.sdk import control
from repro.telemetry.runs import run_seeded_migration
from repro.telemetry.timeline import well_nested

from tests.conftest import build_counter_app

#: The phase ordering of one clean (fault-free) storageless enclave
#: migration: the stop-and-copy window opens first, then every protocol
#: step but the storage handoff (negotiated away without storage), then
#: the resume on the target.
EXPECTED_ENCLAVE_PHASES = [
    "stop-and-copy",
    *(step for step in PROTOCOL_STEPS if step != STEP_HANDOFF_STORAGE),
    "resume",
]


class TestGoldenTimeline:
    """One fault-free seeded migration has exactly one canonical shape."""

    @pytest.fixture(scope="class")
    def tb(self):
        return run_seeded_migration(seed=1)

    def test_phase_ordering_is_golden(self, tb):
        report = tb.telemetry.timeline()
        assert report.phase_names == EXPECTED_ENCLAVE_PHASES

    def test_downtime_equals_stop_and_copy_span(self, tb):
        report = tb.telemetry.timeline()
        stop_and_copy = tb.telemetry.tracer.last("migration.stop_and_copy")
        assert report.downtime_ns == stop_and_copy.duration_ns
        assert report.downtime_ns > 0

    def test_phases_partition_the_stop_and_copy_window(self, tb):
        report = tb.telemetry.timeline()
        steps = [p for p in report.phases if p.name != "stop-and-copy"]
        window = next(p for p in report.phases if p.name == "stop-and-copy")
        for phase in steps:
            assert window.start_ns <= phase.start_ns <= phase.end_ns <= window.end_ns

    def test_figures_are_consistent(self, tb):
        report = tb.telemetry.timeline()
        assert report.total_ns >= report.downtime_ns
        assert report.transferred_bytes > 0
        assert report.attempts == 1
        assert not report.aborted
        assert report.faults_injected == {}

    def test_report_round_trips_to_dict(self, tb):
        d = tb.telemetry.timeline().as_dict()
        assert d["figures"]["downtime_ns"] == tb.telemetry.timeline().downtime_ns
        assert d["per_phase_ns"]["stop-and-copy"] == d["figures"]["downtime_ns"]
        assert len(d["phases"]) == len(EXPECTED_ENCLAVE_PHASES)

    def test_same_seed_same_timeline(self):
        a = run_seeded_migration(seed=99).telemetry.timeline().as_dict()
        b = run_seeded_migration(seed=99).telemetry.timeline().as_dict()
        assert a == b


class TestStorageTimeline:
    """A migration that carries sealed storage takes the handoff step,
    and the timeline reports it as a phase of its own."""

    def test_handoff_storage_phase_is_reported(self):
        tb = build_testbed(seed=5)
        app = build_counter_app(tb, tag="storage-timeline")
        app.library.control_call(control.storage_put, "note", "rides along")
        MigrationOrchestrator(tb).migrate_enclave(app)
        report = tb.telemetry.timeline()
        names = report.phase_names
        assert names == ["stop-and-copy", *PROTOCOL_STEPS, "resume"]
        assert (
            names.index("transfer-checkpoint")
            < names.index(STEP_HANDOFF_STORAGE)
            < names.index("handoff-key")
        )
        assert report.per_phase_ns()[STEP_HANDOFF_STORAGE] > 0


class TestVmTimeline:
    def test_vm_phases(self):
        """Each of the run's two enclaves walks the table's rows in order:
        its checkpoint inside the VM's prepare, the rest from the cut-over
        on inside the VM's restore (storage handoff negotiated away)."""
        tb = run_seeded_migration(seed=2, vm=True)
        phases = tb.telemetry.timeline().phases
        names = [p.name for p in phases]
        assert names[0] == "prepare"
        assert any(n.startswith("pre-copy round") for n in names)
        assert "stop-and-copy" in names

        def inside(window):
            return [
                p.name
                for p in phases
                if p is not window
                and window.start_ns <= p.start_ns
                and p.end_ns <= window.end_ns
            ]

        def rows(steps):
            return [step.name for step in steps if not step.negotiated]

        assert inside(phases[0]) == rows(steps_before(CUT_OVER, VM_STEPS)) * 2
        vm_restore = phases[names.index("vm-restore")]
        assert inside(vm_restore) == rows(steps_from(CUT_OVER, VM_STEPS)) * 2


#: Seeded fault matrix for the nesting property: message faults on every
#: wire label, plus crashes on both sides of the point of no return.
_FAULT_CASES = [
    MessageFault("drop", "kmigrate"),
    MessageFault("drop", "checkpoint-chunk"),
    MessageFault("corrupt", "checkpoint-chunk", nth=2),
    MessageFault("duplicate", "channel-request"),
    MessageFault("delay", "channel-answer"),
]


class TestSpanNestingProperty:
    """Spans stay well-nested per (party, track) whatever faults fire."""

    def _run(self, plan):
        tb = build_testbed(seed=1000 + plan.seed)
        app = build_counter_app(tb, tag="nesting")
        app.ecall_once(0, "incr", 5)
        orch = MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        )
        try:
            orch.migrate_enclave(app)
        except (MigrationAborted, PartyCrash):
            pass
        return tb

    @pytest.mark.parametrize("fault", _FAULT_CASES, ids=lambda f: f"{f.kind}:{f.label}")
    @pytest.mark.parametrize("seed", (1, 7))
    def test_message_faults_keep_spans_well_nested(self, fault, seed):
        plan = FaultPlan(seed=seed)
        plan.message_faults.append(fault)
        tb = self._run(plan)
        assert well_nested(tb.telemetry.tracer.spans)

    @pytest.mark.parametrize("side", ("source", "target"))
    @pytest.mark.parametrize("step", ("checkpoint", "transfer-checkpoint", "restore"))
    def test_crashes_keep_spans_well_nested(self, side, step):
        tb = self._run(FaultPlan(seed=3).crash(side, step))
        spans = tb.telemetry.tracer.spans
        assert well_nested(spans)
        # A crash may strand open spans, but every *finished* one closed
        # in LIFO order on its own track — the tracer guarantees it.
        assert all(s.end_ns >= s.start_ns for s in spans if s.finished)

    def test_fault_counters_fold_into_metrics(self):
        plan = FaultPlan(seed=1)
        plan.message_faults.append(MessageFault("drop", "kmigrate"))
        tb = self._run(plan)
        faults = tb.telemetry.timeline().faults_injected
        assert sum(faults.values()) >= 1
        assert sum(faults.values()) == tb.trace.metrics.sum_across_labels(
            "faults.injected"
        )
