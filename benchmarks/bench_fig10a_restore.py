"""Figure 10(a): time to restore all enclaves on the target machine.

Paper result: "The total time grows linearly as the number of enclaves
increases, because the enclaves are rebuilt one by one."

We use the agent-enclave path so remote-attestation latency (hidden by
§VI-D, and not part of the paper's Fig 10(a) curve) stays off the
restore path; what remains is the serial rebuild (ECREATE/EADD/EEXTEND/
EINIT per page) plus in-enclave restore — the linear component.
"""

import pytest

from benchmarks.harness import launch_shared_image_apps, print_figure, write_bench_json
from repro.migration.agent import AgentService, build_agent_image
from repro.migration.orchestrator import MigrationOrchestrator, MigrationRun
from repro.migration.protocol import AGENT_STEPS, CUT_OVER, steps_before, steps_from
from repro.migration.testbed import build_testbed
from repro.workloads.apps import build_app_image

ENCLAVE_COUNTS = (1, 2, 4, 8, 16)


def _restore_all_ns(n_enclaves: int) -> int:
    tb = build_testbed(seed=f"fig10a-{n_enclaves}", vepc_pages=16384)
    agent_built = build_agent_image(tb.builder)
    tb.owner.set_agent_image(agent_built)
    apps = []
    for i in range(n_enclaves):
        built = build_app_image(tb.builder, "mcrypt", flavor=f"f10a-{n_enclaves}-{i}")
        apps.extend(launch_shared_image_apps(tb, built, 1))
    agent = AgentService(tb, agent_built)
    orch = MigrationOrchestrator(tb)
    runs = [MigrationRun(app, agent=agent) for app in apps]
    for run in runs:
        orch.run_steps(run, steps_before(CUT_OVER, AGENT_STEPS))
    # Measure only the target-side rebuild + restore, enclave by enclave.
    start = tb.clock.now_ns
    for run in runs:
        orch.run_steps(run, steps_from(CUT_OVER, AGENT_STEPS))
    return tb.clock.now_ns - start


def run_figure_10a() -> dict[int, float]:
    results = {n: _restore_all_ns(n) for n in ENCLAVE_COUNTS}
    write_bench_json(
        "fig10",
        {
            "fig10a": {
                "unit": "ns",
                "series": "total restore time on the target, agent path",
                "enclaves": {str(n): ns for n, ns in results.items()},
            }
        },
    )
    return {n: ns / 1_000 for n, ns in results.items()}


@pytest.mark.benchmark(group="fig10a")
def test_fig10a_restore_time(benchmark):
    results = benchmark.pedantic(run_figure_10a, rounds=1, iterations=1)
    print_figure(
        "Figure 10(a): total restore time on the target",
        ["enclaves", "total time (us)", "per enclave (us)"],
        [[n, round(us, 1), round(us / n, 1)] for n, us in results.items()],
    )
    # Linear growth: per-enclave cost is constant across the sweep.
    per_enclave = [us / n for n, us in results.items()]
    assert max(per_enclave) < 1.25 * min(per_enclave)
    # 16 enclaves cost ~16x one enclave (serial rebuild).
    assert results[16] == pytest.approx(16 * results[1], rel=0.25)
