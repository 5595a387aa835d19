"""Virtual time.

The reproduction never reads the wall clock for results.  All modelled
durations are charged to a :class:`VirtualClock` in integer nanoseconds, so
experiment output is deterministic and the benchmarks report the same kind
of quantity the paper reports (microseconds / milliseconds of system time),
independent of how fast the simulation itself happens to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class VirtualClock:
    """A monotonically advancing virtual clock with nanosecond resolution."""

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start before t=0")
        self._now_ns = int(start_ns)

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self._now_ns / NS_PER_US

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ns / NS_PER_MS

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` and return the new time.

        Negative durations are rejected: virtual time never runs backwards.
        """
        delta_ns = int(delta_ns)
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by {delta_ns} ns")
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, t_ns: int) -> int:
        """Advance the clock to absolute time ``t_ns`` if it is later."""
        if t_ns > self._now_ns:
            self._now_ns = int(t_ns)
        return self._now_ns

    def stopwatch(self) -> "Stopwatch":
        """Return a stopwatch that measures virtual time on this clock."""
        return Stopwatch(self)


@dataclass
class Stopwatch:
    """Measures elapsed virtual time between :meth:`start` and :meth:`stop`."""

    clock: VirtualClock
    start_ns: int = field(default=0)
    stop_ns: int | None = field(default=None)

    def __post_init__(self) -> None:
        self.start_ns = self.clock.now_ns

    def restart(self) -> None:
        self.start_ns = self.clock.now_ns
        self.stop_ns = None

    def stop(self) -> int:
        """Freeze the stopwatch and return the elapsed nanoseconds."""
        self.stop_ns = self.clock.now_ns
        return self.elapsed_ns

    @property
    def elapsed_ns(self) -> int:
        end = self.stop_ns if self.stop_ns is not None else self.clock.now_ns
        return end - self.start_ns

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / NS_PER_US

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / NS_PER_MS
