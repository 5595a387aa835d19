"""Canonical instrumented runs for the CLI, CI, and the golden tests.

``repro trace`` / ``repro metrics`` and the telemetry test-suite all need
the *same* seeded migration so their artifacts agree byte for byte; this
module is that single definition.  Everything runs on the virtual clock,
so one seed maps to exactly one trace.

``repro diff`` perturbs the same run: passing ``costs`` (usually
``dataclasses.replace(DEFAULT_COSTS, journal_commit_ns=...)``) re-runs
the identical protocol under a different cost model, which is what makes
two snapshots comparable span-for-span.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.migration.testbed import Testbed
    from repro.sim.costs import CostModel


def run_seeded_migration(
    seed: int | str = 1,
    vm: bool = False,
    costs: "CostModel | None" = None,
) -> "Testbed":
    """Run one fault-free migration and return its (telemetry-rich) testbed.

    ``vm=False`` migrates a single counter enclave through the two-phase
    protocol; ``vm=True`` live-migrates a whole VM carrying two enclave
    applications (the Figure-10 shape).  The returned testbed's
    ``telemetry`` carries the spans and metrics of the run.
    """
    if vm:
        return _run_vm_migration(seed, costs)
    return _run_enclave_migration(seed, costs)


def _build(seed, costs) -> "Testbed":
    from repro.migration.testbed import build_testbed
    from repro.sim.costs import DEFAULT_COSTS

    return build_testbed(seed=seed, costs=costs if costs is not None else DEFAULT_COSTS)


def _run_enclave_migration(seed, costs=None) -> "Testbed":
    from repro.migration.orchestrator import MigrationOrchestrator
    from repro.sdk import HostApplication, counter_program

    tb = _build(seed, costs)
    built = tb.builder.build(
        "telemetry-demo",
        counter_program("telemetry/counter-v1"),
        n_workers=1,
        global_names=("n",),
    )
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image, [], owner=tb.owner
    ).launch()
    for _ in range(3):
        app.ecall_once(0, "incr")
    result = MigrationOrchestrator(tb).migrate_enclave(app)
    result.target_app.ecall_once(0, "incr", 0)
    return tb


def _run_vm_migration(seed, costs=None) -> "Testbed":
    from repro.migration.vm import VmMigrationManager
    from repro.sdk import HostApplication, WorkerSpec
    from repro.workloads.apps import build_app_image

    tb = _build(seed, costs)
    apps = []
    for i in range(2):
        built = build_app_image(tb.builder, "cr4", flavor=f"telemetry{i}")
        tb.owner.register_image(built)
        apps.append(
            HostApplication(
                tb.source, tb.source_os, built.image,
                workers=[WorkerSpec("process", args=1, repeat=None)],
                owner=tb.owner,
            ).launch()
        )
    for _ in range(30):
        tb.source_os.engine.step_round()
    VmMigrationManager(tb, apps).migrate()
    return tb
