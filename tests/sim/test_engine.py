"""Scheduler engine: round-robin, contention, blocking, suspension."""

import pytest

from repro.errors import ReproError
from repro.sim.clock import VirtualClock
from repro.sim.engine import Block, Engine, EngineStall, SimThread, ThreadState


def make_engine(n_vcpus=4, ctx=0):
    return Engine(VirtualClock(), n_vcpus=n_vcpus, context_switch_ns=ctx)


def ticker(n, cost=100):
    def body():
        for _ in range(n):
            yield cost
    return body()


class TestSimThread:
    def test_runs_to_completion(self):
        thread = SimThread("t", ticker(3))
        assert thread.run_step() == 100
        assert thread.run_step() == 100
        assert thread.run_step() == 100
        assert thread.run_step() == 0
        assert thread.finished

    def test_result_captured(self):
        def body():
            yield 10
            return "done"
        thread = SimThread("t", body())
        thread.run_step()
        thread.run_step()
        assert thread.result == "done"

    def test_negative_cost_rejected(self):
        def body():
            yield -5
        thread = SimThread("t", body())
        with pytest.raises(ReproError):
            thread.run_step()

    def test_cpu_time_accumulates(self):
        thread = SimThread("t", ticker(4, cost=25))
        for _ in range(4):
            thread.run_step()
        assert thread.cpu_time_ns == 100

    def test_block_transitions_state(self):
        flag = {"ready": False}

        def body():
            yield Block(lambda: flag["ready"])
            yield 1
        thread = SimThread("t", body())
        thread.run_step()
        assert thread.state is ThreadState.BLOCKED
        thread.maybe_wake()
        assert thread.state is ThreadState.BLOCKED
        flag["ready"] = True
        thread.maybe_wake()
        assert thread.state is ThreadState.READY


class TestEngine:
    def test_all_threads_finish(self):
        engine = make_engine()
        threads = [engine.spawn(f"t{i}", ticker(5)) for i in range(3)]
        engine.run_all()
        assert all(t.finished for t in threads)

    def test_round_advances_clock_by_max_step(self):
        engine = make_engine(n_vcpus=4)

        def body(cost):
            yield cost
        engine.spawn("fast", body(10))
        engine.spawn("slow", body(500))
        engine.step_round()
        # Both scheduled in one round: the round costs the slowest step.
        assert engine.clock.now_ns == 500

    def test_contention_adds_context_switch(self):
        engine = Engine(VirtualClock(), n_vcpus=1, context_switch_ns=50)
        engine.spawn("a", ticker(1, cost=100))
        engine.spawn("b", ticker(1, cost=100))
        engine.step_round()
        assert engine.clock.now_ns == 150  # 100 + context switch

    def test_no_context_switch_when_fits(self):
        engine = Engine(VirtualClock(), n_vcpus=2, context_switch_ns=50)
        engine.spawn("a", ticker(1, cost=100))
        engine.spawn("b", ticker(1, cost=100))
        engine.step_round()
        assert engine.clock.now_ns == 100

    def test_contention_slows_completion(self):
        wide = make_engine(n_vcpus=8)
        narrow = make_engine(n_vcpus=2)
        for engine in (wide, narrow):
            for i in range(8):
                engine.spawn(f"t{i}", ticker(10, cost=100))
            engine.run_all()
        assert narrow.clock.now_ns > wide.clock.now_ns

    def test_run_until_condition(self):
        engine = make_engine()
        counter = {"n": 0}

        def body():
            while True:
                counter["n"] += 1
                yield 10
        engine.spawn("loop", body())
        engine.run(until=lambda: counter["n"] >= 5)
        assert counter["n"] >= 5

    def test_run_until_already_true(self):
        engine = make_engine()
        engine.spawn("t", ticker(5))
        assert engine.run(until=lambda: True) == 0

    def test_stall_detected(self):
        engine = make_engine()
        engine.spawn("stuck", iter([Block(lambda: False)]))
        with pytest.raises(EngineStall):
            engine.run_all()

    def test_runaway_detected(self):
        engine = make_engine()

        def forever():
            while True:
                yield 1
        engine.spawn("loop", forever())
        with pytest.raises(ReproError):
            engine.run_all(max_rounds=100)

    def test_blocked_thread_wakes_on_condition(self):
        engine = make_engine()
        flag = {"go": False}
        order = []

        def waiter():
            yield Block(lambda: flag["go"])
            order.append("waiter")
            yield 1

        def setter():
            yield 10
            flag["go"] = True
            order.append("setter")
            yield 1
        engine.spawn("w", waiter())
        engine.spawn("s", setter())
        engine.run_all()
        assert order == ["setter", "waiter"]

    def test_suspended_thread_not_scheduled(self):
        engine = make_engine()
        thread = engine.spawn("t", ticker(3))
        thread.suspended = True
        other = engine.spawn("o", ticker(1))
        engine.run(until=lambda: other.finished)
        assert thread.steps_run == 0
        thread.suspended = False
        engine.run_all()
        assert thread.finished

    def test_threads_added_mid_run_are_scheduled(self):
        engine = make_engine()
        spawned = []

        def spawner():
            yield 10
            spawned.append(engine.spawn("late", ticker(2)))
            yield 10
        engine.spawn("spawner", spawner())
        engine.run_all()
        assert spawned[0].finished

    def test_fairness_round_robin(self):
        engine = Engine(VirtualClock(), n_vcpus=1, context_switch_ns=0)
        threads = [engine.spawn(f"t{i}", ticker(10)) for i in range(4)]
        for _ in range(8):
            engine.step_round()
        steps = [t.steps_run for t in threads]
        assert max(steps) - min(steps) <= 1  # nobody starves

    def test_remove_finished(self):
        """A finished thread leaves ``Engine.threads`` at the next round."""
        engine = make_engine()
        short = engine.spawn("short", ticker(1))
        long = engine.spawn("long", ticker(5))
        engine.step_round()
        engine.step_round()  # short's body returns in this round
        assert short.finished and short in engine.threads
        engine.step_round()
        assert engine.threads == [long]
        engine.run_all()
        assert engine.threads == []

    def test_round_wakes_only_live_threads(self, monkeypatch):
        engine = make_engine(n_vcpus=100)
        for i in range(10_000):
            engine.spawn(f"done-{i}", ticker(0))
        engine.run_all()
        live = [engine.spawn("ticker", ticker(3))]

        def waiting():
            yield Block(lambda: False)

        live.append(engine.spawn("waiting", waiting()))
        woken = []
        wake = SimThread.maybe_wake
        monkeypatch.setattr(
            SimThread, "maybe_wake", lambda thread: (woken.append(thread), wake(thread))[1]
        )
        engine.step_round()
        assert woken == live
