"""Cooperative round-robin execution engine with VCPU contention.

Threads are Python generators that yield the modelled cost (in ns) of the
work they just performed, or a :class:`Block` marker when they must wait for
a condition.  Each scheduling round runs at most ``n_vcpus`` ready threads
"in parallel"; the virtual clock advances by the longest step in the round
plus a context-switch charge.  With more runnable threads than VCPUs a
thread is only scheduled every ``ceil(runnable / n_vcpus)`` rounds — this is
the contention that makes two-phase checkpointing slower at 8 enclaves than
at 4 in Figure 9(c) of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator

from repro.errors import ReproError
from repro.sim.clock import VirtualClock

#: Clock advance per fully idle round (every thread blocked).
IDLE_TICK_NS = 10_000


class EngineStall(ReproError):
    """The engine made no progress: every live thread is blocked."""


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    FINISHED = "finished"


@dataclass
class Block:
    """Yielded by a thread body to wait until ``predicate()`` is true."""

    predicate: Callable[[], bool]
    poll_cost_ns: int = 500


ThreadBody = Generator[int | Block, None, None]


class SimThread:
    """A schedulable thread wrapping a generator body."""

    def __init__(self, name: str, body: ThreadBody) -> None:
        self.name = name
        self._body = body
        self.state = ThreadState.READY
        self._block: Block | None = None
        self.result: object = None
        self.steps_run = 0
        self.cpu_time_ns = 0
        # An OS-level suspension (scheduler's stop_thread): the thread keeps
        # its state but is never scheduled while this is set.
        self.suspended = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name} {self.state.value}>"

    @property
    def finished(self) -> bool:
        return self.state is ThreadState.FINISHED

    def maybe_wake(self) -> None:
        """Move a blocked thread back to READY if its condition now holds."""
        if self.state is ThreadState.BLOCKED and self._block is not None:
            if self._block.predicate():
                self._block = None
                self.state = ThreadState.READY

    def run_step(self) -> int:
        """Advance the body by one yield; return the step's modelled cost."""
        if self.state is not ThreadState.READY:
            raise ReproError(f"cannot step thread in state {self.state}")
        try:
            yielded = next(self._body)
        except StopIteration as stop:
            self.state = ThreadState.FINISHED
            self.result = stop.value
            return 0
        self.steps_run += 1
        if isinstance(yielded, Block):
            self._block = yielded
            self.state = ThreadState.BLOCKED
            self.cpu_time_ns += yielded.poll_cost_ns
            return yielded.poll_cost_ns
        cost = int(yielded)
        if cost < 0:
            raise ReproError(f"thread {self.name} yielded negative cost {cost}")
        self.cpu_time_ns += cost
        return cost


class Engine:
    """Round-robin scheduler over :class:`SimThread` on ``n_vcpus`` VCPUs."""

    def __init__(self, clock: VirtualClock, n_vcpus: int = 4, context_switch_ns: int = 1_200) -> None:
        if n_vcpus < 1:
            raise ValueError("need at least one VCPU")
        self.clock = clock
        self.n_vcpus = n_vcpus
        self.context_switch_ns = context_switch_ns
        self._threads: list[SimThread] = []
        self._cursor = 0
        self.rounds_run = 0
        self._consecutive_idle = 0
        #: Idle rounds tolerated before declaring a stall.
        self.max_idle_rounds = 10_000
        #: Zero-argument callables invoked after every productive round;
        #: the invariant monitor uses this to watch the system live.  A
        #: hook that raises aborts the round loop — that is the point.
        self.round_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------- membership
    def add(self, thread: SimThread) -> SimThread:
        self._threads.append(thread)
        return thread

    def spawn(self, name: str, body: ThreadBody) -> SimThread:
        return self.add(SimThread(name, body))

    @property
    def threads(self) -> list[SimThread]:
        """The threads the engine still runs: a finished thread leaves at
        the start of the next round."""
        return list(self._threads)

    # ------------------------------------------------------------- scheduling
    def _ready_threads(self) -> list[SimThread]:
        # A finished thread is never READY, so dropping it changes neither
        # the ready list nor the cursor into it; it only stops every later
        # round from waking the engine's whole history.
        self._threads = [t for t in self._threads if t.state is not ThreadState.FINISHED]
        for thread in self._threads:
            thread.maybe_wake()
        return [
            t for t in self._threads if t.state is ThreadState.READY and not t.suspended
        ]

    def step_round(self) -> bool:
        """Run one scheduling round.

        Returns ``True`` if any thread made progress.  Raises
        :class:`EngineStall` if live threads exist but all are blocked on
        conditions that never became true (a deadlock in the modelled
        system, e.g. spinning on a flag nobody will clear — the engine's
        caller decides whether that is a bug or, as with self-destroy, the
        intended terminal state).
        """
        ready = self._ready_threads()
        if not ready:
            blocked = [t for t in self._threads if not t.suspended]
            if blocked:
                # Everyone is waiting: let virtual time pass (an idle CPU)
                # so time-based conditions can come true.  A condition
                # that never does is a genuine stall.
                self._consecutive_idle += 1
                if self._consecutive_idle > self.max_idle_rounds:
                    raise EngineStall(
                        "no runnable thread; blocked: " + ", ".join(t.name for t in blocked)
                    )
                self.clock.advance(IDLE_TICK_NS)
                self.rounds_run += 1
                return True
            # Only suspended (or no) threads remain: quiescent, not stuck.
            return False
        self._consecutive_idle = 0

        # Round-robin selection of up to n_vcpus threads, continuing from
        # where the previous round left off.
        if self._cursor >= len(ready):
            self._cursor = 0
        picked = [ready[(self._cursor + i) % len(ready)] for i in range(min(self.n_vcpus, len(ready)))]
        self._cursor = (self._cursor + len(picked)) % max(len(ready), 1)

        round_cost = 0
        for thread in picked:
            round_cost = max(round_cost, thread.run_step())
        if len(ready) > self.n_vcpus:
            round_cost += self.context_switch_ns
        self.clock.advance(round_cost)
        self.rounds_run += 1
        for hook in self.round_hooks:
            hook()
        return True

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_rounds: int = 1_000_000,
    ) -> int:
        """Run rounds until ``until()`` holds (or all threads finish).

        Returns the number of rounds executed.  ``max_rounds`` bounds
        runaway simulations; exceeding it is an error because every
        modelled protocol in this repository terminates.
        """
        rounds = 0
        while rounds < max_rounds:
            if until is not None and until():
                return rounds
            if not self.step_round():
                if until is not None and not until():
                    raise EngineStall("all threads finished before condition held")
                return rounds
            rounds += 1
        raise ReproError(f"engine exceeded {max_rounds} rounds without terminating")

    def run_all(self, max_rounds: int = 1_000_000) -> int:
        """Run until every thread has finished."""
        return self.run(until=None, max_rounds=max_rounds)
