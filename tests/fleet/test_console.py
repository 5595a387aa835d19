"""Fleet console: status grid, live frames, deterministic snapshots."""

import io

from repro.fleet import FleetConfig, FleetConsole, FleetRunner


def _run(console=None, **overrides):
    config = dict(n=4, seeds=(1, 2), max_inflight=2)
    config.update(overrides)
    runner = FleetRunner(
        FleetConfig(**config),
        on_record=console.on_record if console else None,
    )
    return runner.run()


class TestGrid:
    def test_cells_track_migration_outcomes(self):
        console = FleetConsole(n=4)
        _run(console, n=4, fault_every=3)
        # Indices 0 and 3 are faulted (delayed checkpoint): each completes
        # over the downtime budget, so each renders as an alert cell.
        grid_line = console.render(final=True).splitlines()[1]
        assert grid_line == "  !##!"

    def test_faulted_migration_within_budget_renders_as_plus(self):
        console = FleetConsole(n=1)
        _run(console, n=1, seeds=(1,), fault_every=1,
             fault_spec="duplicate:channel-request:1")
        assert console.render(final=True).splitlines()[1] == "  +"

    def test_failed_migrations_render_as_x(self):
        console = FleetConsole(n=2)
        _run(console, n=2, seeds=(9,), fault_every=1,
             fault_spec="drop:checkpoint:1")
        grid_line = console.render(final=True).splitlines()[1]
        assert grid_line == "  XX"

    def test_pending_cells_before_any_record(self):
        console = FleetConsole(n=3)
        assert console.render().splitlines()[1] == "  ..."


class TestFrames:
    def test_live_frames_are_emitted_on_cadence(self):
        stream = io.StringIO()
        console = FleetConsole(n=4, stream=stream, frame_every=2)
        _run(console, n=4)
        assert console.frames_emitted == 2
        out = stream.getvalue()
        assert "--- frame 1 ---" in out
        assert "--- frame 2 ---" in out
        assert "fleet: 2/4 done" in out
        assert "fleet: 4/4 done" in out
        # Live frames carry the tail line; the admission model keeps the
        # inflight count visible mid-run.
        assert "last: mig000" in out
        assert "| inflight" in out

    def test_no_stream_means_no_frames(self):
        console = FleetConsole(n=2, frame_every=1)
        _run(console, n=2)
        assert console.frames_emitted == 0


class TestSnapshot:
    def test_final_snapshot_is_deterministic(self):
        snaps = []
        for _ in range(2):
            console = FleetConsole(n=3)
            report = _run(console, n=3, fault_every=3)
            snaps.append(console.snapshot(report))
        assert snaps[0] == snaps[1]

    def test_final_snapshot_summarises_the_fleet(self):
        console = FleetConsole(n=3)
        _run(console, n=3)
        snap = console.snapshot()
        assert snap.startswith("fleet: 3/3 done (0 failed, 0 faulted)")
        assert "downtime: p50 " in snap
        assert "alerts: none" in snap
        assert "throughput: " in snap
        assert snap.endswith("migrations/sec over 3 runs\n")
        # Final frames omit the live-only lines.
        assert "last:" not in snap
        assert "inflight" not in snap

    def test_firing_alerts_survive_into_the_snapshot(self):
        console = FleetConsole(n=3)
        _run(console, n=3, fault_every=1)
        snap = console.snapshot()
        assert "alerts: downtime-budget FIRING (3 over budget)\n" in snap

    def test_grid_wraps_at_width(self):
        console = FleetConsole(n=130)
        lines = console.render().splitlines()
        assert lines[1] == "  " + "." * 64
        assert lines[2] == "  " + "." * 64
        assert lines[3] == "  " + "." * 2
