"""The run's profile: the critical-path walk over the whole run, folded
by span ancestry — exact weights, zero perturbation."""

from repro.net.network import Network
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.trace import EventTrace
from repro.telemetry import Telemetry
from repro.telemetry.criticalpath import IDLE_FRAME, folded, profile_stacks
from repro.telemetry.runs import run_seeded_migration


def _bare_run():
    clock = VirtualClock()
    trace = EventTrace(clock)
    return Telemetry(clock, trace), Network(clock, DEFAULT_COSTS, trace)


def _profile(tb):
    return profile_stacks(tb.telemetry, tb.network)


class TestSampling:
    def test_samples_credit_the_open_span_stack(self):
        tel, network = _bare_run()
        with tel.tracer.span("outer", party="source"):
            tel.clock.advance(2_500)
            with tel.tracer.span("inner", party="source"):
                tel.clock.advance(3_000)
                network.transfer("kmigrate", b"k" * 64)
        transfer_ns = DEFAULT_COSTS.net_transfer_ns(64)
        assert profile_stacks(tel, network) == {
            ("source", "outer"): 2_500,
            ("source", "outer", "inner"): 3_000,
            ("source", "outer", "inner", "wire/kmigrate"): transfer_ns,
        }

    def test_idle_frame_when_no_span_open(self):
        tel, network = _bare_run()
        tel.clock.advance(3_200)
        with tel.tracer.span("burst", party="target"):
            tel.clock.advance(10_000)
        assert profile_stacks(tel, network) == {
            (IDLE_FRAME,): 3_200,
            ("target", "burst"): 10_000,
        }


class TestDeterminism:
    def test_profiling_never_perturbs_virtual_time(self):
        tb = run_seeded_migration(seed=1)
        now_ns = tb.clock.now_ns
        metrics = tb.telemetry.metrics.snapshot()
        _profile(tb)
        assert tb.clock.now_ns == now_ns
        assert tb.telemetry.metrics.snapshot() == metrics

    def test_same_seed_same_folded_output(self):
        runs = [run_seeded_migration(seed=9) for _ in range(2)]
        texts = [folded(_profile(tb)) for tb in runs]
        assert texts[0] == texts[1]
        assert texts[0]  # non-empty

    def test_migration_profile_shape(self):
        tb = run_seeded_migration(seed=1)
        stacks = _profile(tb)
        assert sum(stacks.values()) == tb.clock.now_ns
        frames_seen = {frame for frames in stacks for frame in frames}
        assert "migration.stop_and_copy" in frames_seen
        assert "journal.commit" in frames_seen
        # Every wire leaf hangs under the span that sent it.
        parties = {"source", "target", "orchestrator", "agent"}
        for frames in stacks:
            if frames[-1].startswith("wire/"):
                assert frames[0] in parties and len(frames) >= 3
            else:
                assert frames[0] in parties or frames == (IDLE_FRAME,)

    def test_vm_profile_weights_sum_to_the_run(self):
        tb = run_seeded_migration(seed=1, vm=True)
        stacks = _profile(tb)
        assert sum(stacks.values()) == tb.clock.now_ns
        assert any("vm.stop_and_copy" in frames for frames in stacks)


class TestRoundTrip:
    def test_folded_lines_are_sorted_and_weighted(self):
        stacks = {("b", "x"): 60, ("a", "y"): 40}
        assert folded(stacks) == "a;y 40\nb;x 60\n"
        assert folded({}) == ""
