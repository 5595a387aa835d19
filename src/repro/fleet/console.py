"""Curses-free live console for fleet runs.

One :class:`FleetConsole` hooks a :class:`~repro.fleet.runner.FleetRunner`
via its ``on_record`` callback and renders plain-text frames: a status
grid (one cell per migration), the fleet downtime percentiles from the
shared sketch, and how many migrations exceeded the downtime budget.  Frames
are pure functions of fleet state on the *virtual* timeline — no wall
time, no terminal control sequences — so ``--watch`` output and the
final snapshot are byte-identical across runs and safe to diff in CI.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.runner import FleetReport, FleetRunner, MigrationRecord

__all__ = ["FleetConsole"]

#: Status-grid cells: one character per migration.
CELL_PENDING = "."
CELL_OK = "#"
CELL_OK_FAULTED = "+"
CELL_OVER_BUDGET = "!"
CELL_FAILED = "X"

GRID_WIDTH = 64


class FleetConsole:
    """Accumulates fleet progress and renders deterministic text frames."""

    def __init__(
        self,
        n: int,
        stream: "IO[str] | None" = None,
        frame_every: int = 0,
    ) -> None:
        self.n = n
        self.stream = stream
        #: Emit a frame to ``stream`` every this-many completions
        #: (0 = only when :meth:`render` is called explicitly).
        self.frame_every = frame_every
        self._cells = [CELL_PENDING] * n
        self._records: list["MigrationRecord"] = []
        self._runner: "FleetRunner | None" = None
        self.frames_emitted = 0

    # ---------------------------------------------------------------- intake
    def on_record(self, record: "MigrationRecord", runner: "FleetRunner") -> None:
        """The :class:`FleetRunner` ``on_record`` hook."""
        self._runner = runner
        self._records.append(record)
        if record.status != "ok":
            cell = CELL_FAILED
        elif record.over_budget:
            cell = CELL_OVER_BUDGET
        elif record.faulted:
            cell = CELL_OK_FAULTED
        else:
            cell = CELL_OK
        if 0 <= record.index < self.n:
            self._cells[record.index] = cell
        if (
            self.stream is not None
            and self.frame_every > 0
            and len(self._records) % self.frame_every == 0
        ):
            self.emit_frame()

    # --------------------------------------------------------------- render
    def render(self, final: bool = False) -> str:
        """One full frame of fleet state as plain text."""
        records = self._records
        done = len(records)
        failed = sum(1 for r in records if r.status != "ok")
        faulted = sum(1 for r in records if r.faulted)
        runner = self._runner
        now_ns = max((r.end_ns for r in records), default=0)
        lines = [
            (
                f"fleet: {done}/{self.n} done"
                f" ({failed} failed, {faulted} faulted)"
                f" | fleet-time {now_ns / 1e9:.3f}s"
                + (
                    f" | inflight {runner.inflight_at_now}"
                    if runner is not None and not final
                    else ""
                )
            )
        ]
        for row in range(0, self.n, GRID_WIDTH):
            lines.append("  " + "".join(self._cells[row : row + GRID_WIDTH]))
        if runner is not None and runner.downtime_sketch.count:
            sketch = runner.downtime_sketch
            lines.append(
                f"downtime: p50 {sketch.p50 / 1e6:.2f}ms"
                f" p95 {sketch.p95 / 1e6:.2f}ms"
                f" p99 {sketch.p99 / 1e6:.2f}ms"
                f" (n={sketch.count})"
            )
        if runner is not None:
            over = sum(1 for r in records if r.over_budget)
            if over:
                lines.append(f"alerts: downtime-budget FIRING ({over} over budget)")
            elif final:
                lines.append("alerts: none")
        if records and not final:
            last = records[-1]
            lines.append(
                f"last: {last.mig_id} {last.status}"
                f" {last.duration_ns / 1e6:.1f}ms"
                + (
                    f" downtime {last.downtime_ns / 1e6:.2f}ms"
                    if last.downtime_ns is not None
                    else ""
                )
            )
        if runner is not None and getattr(runner, "hosts", None) is not None:
            queued = sum(r.queued_ns for r in records)
            sketch = runner.queue_sketch
            lines.append(
                f"queued: total {queued / 1e6:.1f}ms"
                + (
                    f" | p50 {sketch.p50 / 1e6:.2f}ms p99 {sketch.p99 / 1e6:.2f}ms"
                    if sketch.count
                    else ""
                )
            )
            if final and now_ns:
                lines.append(self.heatmap().rstrip("\n"))
        if final and runner is not None and done:
            makespan = max((r.end_ns for r in records), default=0)
            rate = done / (makespan / 1e9) if makespan else 0.0
            lines.append(f"throughput: {rate:.1f} migrations/sec over {self.n} runs")
        return "\n".join(lines) + "\n"

    def heatmap(self) -> str:
        """The host-utilization heatmap (empty without a host model)."""
        runner = self._runner
        if runner is None or getattr(runner, "hosts", None) is None:
            return ""
        now_ns = max((r.end_ns for r in self._records), default=0)
        return runner.hosts.heatmap(max(now_ns, 1))

    def emit_frame(self) -> None:
        if self.stream is None:
            return
        self.frames_emitted += 1
        self.stream.write(f"--- frame {self.frames_emitted} ---\n")
        self.stream.write(self.render())
        self.stream.flush()

    def snapshot(self, report: "FleetReport | None" = None) -> str:
        """The final console frame (written to ``--console-out``)."""
        return self.render(final=True)
