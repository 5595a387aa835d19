"""Causal DAG: wire-context propagation and fault-visible edges."""

import pytest

from repro.durability.sweep import build_sweep_app
from repro.errors import MigrationAborted
from repro.faults import FaultInjector, FaultPlan, MessageFault, parse_fault_spec
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.telemetry.causal import build_dag
from repro.telemetry.exporters import to_chrome_trace
from repro.telemetry.runs import run_seeded_migration

from tests.conftest import build_counter_app


def _faulted_run(plan):
    """One migration under ``plan`` (fault-tolerant retry, chunked)."""
    tb = build_testbed(seed=2000 + plan.seed)
    app = build_counter_app(tb, tag="causal")
    app.ecall_once(0, "incr", 5)
    orch = MigrationOrchestrator(
        tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
    )
    try:
        orch.migrate_enclave(app)
    except MigrationAborted:
        pass
    return tb


class TestContextPropagation:
    """Every transfer in a run carries the run's trace id."""

    @pytest.fixture(scope="class")
    def tb(self):
        return run_seeded_migration(seed=1)

    def test_trace_id_is_derived_from_the_run_span(self, tb):
        run_span = tb.telemetry.tracer.last("migration.run")
        assert tb.telemetry.tracer.trace_id == f"mig-{run_span.span_id}"
        assert run_span.attrs["trace_id"] == tb.telemetry.tracer.trace_id

    def test_every_transfer_is_stamped(self, tb):
        for record in tb.network.log:
            assert record.trace_id == tb.telemetry.tracer.trace_id
            assert record.parent_span_id is not None

    def test_receiving_spans_carry_no_wire_attributes(self, tb):
        # The record names its receiving span; the span does not repeat it.
        for span in tb.telemetry.tracer.spans:
            assert "adopted_wire_seqs" not in span.attrs

    def test_sequence_numbers_are_unique_and_monotone(self, tb):
        seqs = [r.seq for r in tb.network.log]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_send_edges_point_at_real_spans(self, tb):
        dag = build_dag(tb.telemetry, tb.network)
        sends = [e for e in dag.edges if e.kind == "send"]
        assert len(sends) == len(tb.network.log)
        for edge in sends:
            assert edge.src is not None, f"unparented transfer: {edge.label}"
            span_id = int(edge.src.split(":")[1])
            assert dag.span_by_id(span_id) is not None

    def test_recv_edges_adopt_into_real_spans(self, tb):
        dag = build_dag(tb.telemetry, tb.network)
        recvs = [e for e in dag.edges if e.kind == "recv"]
        assert len(recvs) == len(tb.network.log)
        for edge in recvs:
            assert edge.dst is not None, f"unadopted delivery: {edge.label}"

    def test_fault_free_dag_is_healthy(self, tb):
        dag = build_dag(tb.telemetry, tb.network)
        assert dag.broken_edges() == []
        assert dag.duplicate_edges() == []
        assert dag.reordered_transfers() == []
        assert dag.trace_ids() == [tb.telemetry.tracer.trace_id]


class TestFaultEdges:
    """Injected wire faults become visible DAG structure, not gaps."""

    def test_dropped_transfer_is_a_broken_edge(self):
        plan = FaultPlan(seed=1)
        plan.message_faults.append(MessageFault("drop", "kmigrate"))
        tb = _faulted_run(plan)
        dag = build_dag(tb.telemetry, tb.network)
        broken = dag.broken_edges()
        assert any(e.label == "kmigrate" for e in broken)
        lost = [t for t in tb.network.log if t.status == "lost"]
        assert len(broken) == len(lost)
        for record in lost:
            assert record.t_done_ns is not None
            assert record.recv_span_id is None

    def test_duplicated_transfer_links_back_to_its_original(self):
        plan = FaultPlan(seed=2)
        plan.message_faults.append(MessageFault("duplicate", "channel-request"))
        tb = _faulted_run(plan)
        dag = build_dag(tb.telemetry, tb.network)
        dupes = dag.duplicate_edges()
        assert len(dupes) == 1
        edge = dupes[0]
        assert edge.label == "channel-request"
        extra = dag.transfer_by_seq(int(edge.dst.split(":")[1]))
        original = dag.transfer_by_seq(int(edge.src.split(":")[1]))
        assert extra.duplicate and not original.duplicate
        # Same stamped context, two deliveries.
        assert (extra.trace_id, extra.parent_span_id) == (
            original.trace_id,
            original.parent_span_id,
        )

    def test_reordered_chunks_are_flagged(self):
        plan = FaultPlan(seed=3)
        plan.message_faults.append(MessageFault("reorder", "checkpoint-chunk", nth=2))
        tb = _faulted_run(plan)
        dag = build_dag(tb.telemetry, tb.network)
        flagged = dag.reordered_transfers()
        assert len(flagged) == 2  # the swapped pair, nothing else
        assert all(t.label == "checkpoint-chunk" for t in flagged)

    def test_health_summary_round_trips(self):
        plan = FaultPlan(seed=4)
        plan.message_faults.append(MessageFault("drop", "checkpoint-chunk"))
        tb = _faulted_run(plan)
        dag = build_dag(tb.telemetry, tb.network)
        health = dag.health()
        assert health["spans"] == len(dag.spans)
        assert health["transfers"] == len(dag.transfers)
        assert len(health["broken_edges"]) == len(dag.broken_edges())
        assert dag.as_dict()["health"] == health


class TestReorderFlag:
    """One function of the fault events and the log names a reorder."""

    @staticmethod
    def _flagged_in_chrome_export(tb):
        events = to_chrome_trace(tb.telemetry, tb.network)["traceEvents"]
        wire = [e["args"] for e in events if e.get("cat") == "wire"]
        return [args["seq"] for args in wire if args["reordered"]]

    def test_export_flags_the_swapped_pair_with_or_without_a_dag(self):
        tb = build_testbed(seed=7)
        app = build_sweep_app(tb)
        MigrationOrchestrator(
            tb,
            retry=FAULT_TOLERANT_RETRY,
            faults=FaultInjector(parse_fault_spec("reorder:checkpoint-chunk:1")),
        ).migrate_enclave(app)
        before = self._flagged_in_chrome_export(tb)
        dag = build_dag(tb.telemetry, tb.network)
        after = self._flagged_in_chrome_export(tb)
        assert before == after == [t.seq for t in dag.reordered_transfers()]
        assert len(before) == 2
        assert {r.label for r in tb.network.log if r.seq in before} == {"checkpoint-chunk"}
