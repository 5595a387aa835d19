"""CSSA replay edge cases (§IV-C).

A checkpoint can capture a worker at any interrupt-nesting depth: never
interrupted (CSSA 0), interrupted once and parked in the SDK exception
handler (CSSA 1), or with the handler itself interrupted (CSSA 2 — the
deepest state NSSA=3 can hold, since the last SSA frame must stay free
for the parked handler's own entry).  The target can only rebuild the
hardware counter by EENTER/AEX replay, and the control thread must
refuse to go live when the replayed depth disagrees with the checkpoint.
"""

from __future__ import annotations

import pytest

from repro.errors import CssaMismatch
from repro.migration.orchestrator import MigrationOrchestrator, MigrationRun
from repro.migration.protocol import STEP_RESTORE, steps_before
from repro.sdk import control
from repro.sdk.runtime import FLAG_SPIN
from repro.sgx import instructions as isa

from tests.conftest import build_counter_app


def _park_worker_at_depth(app, worker_pos: int, depth: int) -> int:
    """Drive worker ``worker_pos`` to ``depth`` nested AEX frames, parked.

    Mirrors what the SDK library does when a timer interrupt lands during
    a migration: AEX the running ecall, re-enter on the handler path, and
    (for deeper nesting) AEX the handler too.  The final handler entry
    parks with FLAG_SPIN — the quiescent state the checkpoint records.
    Returns the worker's TCS index.
    """
    worker = app.image.worker_tcs(worker_pos)
    cpu, hw = app.machine.cpu, app.library.hw()

    session = isa.eenter(cpu, hw, worker.vaddr)
    rt = app.library._runtime(session)
    assert rt.entry_stub(worker.index) == "proceed"
    isa.aex(session, {"kind": "timer", "pc": 1})  # CSSA 0 -> 1

    for frame in range(1, depth):
        handler = isa.eenter(cpu, hw, worker.vaddr)
        hrt = app.library._runtime(handler)
        assert hrt.entry_stub(worker.index) == "handler"
        isa.aex(handler, {"kind": "timer", "pc": frame + 1})  # nest deeper

    # The last handler entry sees the migration and parks (§IV-B).
    handler = isa.eenter(cpu, hw, worker.vaddr)
    hrt = app.library._runtime(handler)
    assert hrt.entry_stub(worker.index) == "handler"
    assert hrt.cssa_eenter(worker.index) == depth
    hrt.set_local_flag(worker.index, FLAG_SPIN)
    isa.eexit(handler)
    return worker.index


class TestReplayDepths:
    def test_zero_aex_frames(self, testbed):
        """A never-interrupted enclave needs no replay at all."""
        app = build_counter_app(testbed, tag="cssa0")
        app.ecall_once(0, "incr", 2)
        result = MigrationOrchestrator(testbed).migrate_enclave(app)
        assert result.replay_plan == {}
        assert result.target_app.ecall_once(0, "read") == 2

    @pytest.mark.parametrize("depth", (1, 2))
    def test_nested_aex_frames_replayed_exactly(self, testbed, depth):
        """CSSA 1 (parked handler) and CSSA 2 (interrupted handler — the
        NSSA=3 maximum) survive migration: the checkpoint records the
        tracked depth and the target replays exactly that many frames."""
        app = build_counter_app(testbed, tag=f"cssa{depth}")
        app.ecall_once(1, "incr", 6)
        tcs_index = _park_worker_at_depth(app, worker_pos=0, depth=depth)

        result = MigrationOrchestrator(testbed).migrate_enclave(app)
        assert result.replay_plan == {tcs_index: depth}
        # The restored hardware counter matches the checkpointed depth.
        target_tcs = result.target_app.library.hw().tcs_at(
            result.target_app.image.worker_tcs(0).vaddr
        )
        assert target_tcs._cssa == depth
        # The untouched worker still serves (worker 0 is parked mid-ecall).
        assert result.target_app.ecall_once(1, "read") == 6

    def test_replay_depth_capped_by_nssa(self, testbed):
        """NSSA bounds the nesting: once every SSA frame holds an AEX
        context, the hardware refuses further entries — so no checkpoint
        can ever demand a replay deeper than NSSA."""
        app = build_counter_app(testbed, tag="cssa-max")
        worker = app.image.worker_tcs(0)
        cpu, hw = app.machine.cpu, app.library.hw()
        _park_worker_at_depth(app, worker_pos=0, depth=worker.nssa - 1)
        # Interrupt the last handler too: now all NSSA frames are used...
        last = isa.eenter(cpu, hw, worker.vaddr)
        isa.aex(last, {"kind": "timer"})
        from repro.errors import SgxInstructionFault

        # ...and the thread can never be entered again until ERESUME.
        with pytest.raises(SgxInstructionFault):
            isa.eenter(cpu, hw, worker.vaddr)


class TestReplayMismatch:
    def _restore_with_plan_mutation(self, testbed, mutate):
        """Run the protocol table up to the restore step, then restore by
        hand, mutating the replay plan before the library replays it;
        returns the final verify call."""
        app = build_counter_app(testbed, tag="cssa-bad")
        _park_worker_at_depth(app, worker_pos=0, depth=1)
        run = MigrationRun(app)
        MigrationOrchestrator(testbed).run_steps(run, steps_before(STEP_RESTORE))
        target = run.target
        plan = target.library.control_call(control.target_restore_memory, run.delivered)
        target.library.replay_cssa(mutate(dict(plan)))
        return lambda: target.library.control_call(control.target_verify_and_finish)

    def test_under_replay_aborts_restore(self, testbed):
        """A lazy SGX library that skips the replay is caught in-enclave."""
        finish = self._restore_with_plan_mutation(testbed, lambda p: {})
        with pytest.raises(CssaMismatch):
            finish()

    def test_over_replay_aborts_restore(self, testbed):
        """One AEX too many and the tracked counter disagrees."""
        finish = self._restore_with_plan_mutation(
            testbed, lambda p: {k: v + 1 for k, v in p.items()}
        )
        with pytest.raises(CssaMismatch):
            finish()
