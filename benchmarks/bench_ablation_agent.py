"""Ablation (§VI-D): the agent enclave vs. on-path remote attestation.

"one remote attestation needs at least two network round trips ... The
latency of remote attestation could harm the performance of migration if
not hidden."  With the agent enclave the keys are escrowed ahead of time
and the target only performs *local* attestation at resume.
"""

import pytest

from benchmarks.harness import launch_shared_image_apps, print_figure, write_bench_json
from repro.migration.agent import AgentService, build_agent_image
from repro.migration.orchestrator import MigrationOrchestrator, MigrationRun
from repro.migration.protocol import AGENT_STEPS, CUT_OVER, VM_STEPS, steps_before, steps_from
from repro.migration.testbed import build_testbed
from repro.workloads.apps import build_app_image


def _restore_latency_ns(use_agent: bool) -> int:
    tb = build_testbed(seed=f"ablation-agent-{use_agent}")
    agent_built = build_agent_image(tb.builder)
    tb.owner.set_agent_image(agent_built)
    built = build_app_image(tb.builder, "des", flavor=f"ag{int(use_agent)}")
    app = launch_shared_image_apps(tb, built, 1)[0]
    agent = AgentService(tb, agent_built) if use_agent else None
    steps = AGENT_STEPS if use_agent else VM_STEPS
    orch = MigrationOrchestrator(tb)
    run = MigrationRun(app, agent=agent)
    # The rows before the cut-over (the agent's escrow among them) run
    # during pre-copy, off the path.
    orch.run_steps(run, steps_before(CUT_OVER, steps))
    start = tb.clock.now_ns
    orch.run_steps(run, steps_from(CUT_OVER, steps))
    return tb.clock.now_ns - start


def run_agent_ablation() -> dict[str, float]:
    results = {
        "remote attestation on path": _restore_latency_ns(False),
        "agent enclave (local attestation)": _restore_latency_ns(True),
    }
    write_bench_json(
        "fig10",
        {
            "ablation_agent": {
                "unit": "ns",
                "series": "target-side restore latency per enclave",
                **results,
            }
        },
    )
    return {name: ns / 1_000 for name, ns in results.items()}


@pytest.mark.benchmark(group="ablation-agent")
def test_ablation_agent_enclave(benchmark):
    results = benchmark.pedantic(run_agent_ablation, rounds=1, iterations=1)
    print_figure(
        "Ablation: target-side restore latency per enclave",
        ["configuration", "latency (us)"],
        [[name, round(us, 1)] for name, us in results.items()],
    )
    plain = results["remote attestation on path"]
    with_agent = results["agent enclave (local attestation)"]
    # The WAN round trips dominate the plain path; the agent removes them.
    assert with_agent < plain / 20
