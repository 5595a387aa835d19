"""Whole-VM live migration with enclaves (§VI-D, Figures 10(b)-(d)).

Splices the enclave path into QEMU pre-copy exactly as Figure 8 shows:

①-② the monitor tells the hypervisor, which upcalls the guest OS;
③-⑤ the guest signals each enclave process; control threads two-phase
     checkpoint; the SGX library reports each enclave ready;
⑥-⑦ the guest hypercalls ready and pre-copy proceeds, carrying the
     sealed checkpoints inside ordinary RAM.

Each enclave walks the protocol table's rows (``VM_STEPS``, or the agent
path's ``AGENT_STEPS``) through the orchestrator's one runner: those
before ``CUT_OVER`` while the VM prepares, the rest (rebuild, key and
storage handoff, restore, CSSA replay, verify) once it resumes on the
target.  The checkpoint rides in the RAM, so no row transfers it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypervisor.qemu import MigrationReport
from repro.migration.agent import AgentService
from repro.migration.orchestrator import EnclaveMigrationResult, MigrationOrchestrator, MigrationRun
from repro.migration.protocol import AGENT_STEPS, CUT_OVER, VM_STEPS, steps_before, steps_from
from repro.migration.testbed import Testbed
from repro.sdk.host import HostApplication
from repro.sim.clock import NS_PER_MS


@dataclass
class VmMigrationResult:
    """Everything Figures 10(b)-(d) read off one VM migration."""

    report: MigrationReport
    enclave_results: list[EnclaveMigrationResult]
    n_enclaves: int

    @property
    def total_ms(self) -> float:
        return self.report.total_ms

    @property
    def downtime_ms(self) -> float:
        return self.report.downtime_ms

    @property
    def transferred_mb(self) -> float:
        return self.report.transferred_mb

    @property
    def restore_ms(self) -> float:
        return self.report.restore_ns / NS_PER_MS

    @property
    def prep_ms(self) -> float:
        return self.report.prep_ns / NS_PER_MS


class VmMigrationManager:
    """Migrates a whole VM, enclaves included."""

    def __init__(self, testbed: Testbed, apps: list[HostApplication]) -> None:
        self.tb = testbed
        self.apps = apps
        self.orchestrator = MigrationOrchestrator(testbed)

    def migrate(self, agent: AgentService | None = None) -> VmMigrationResult:
        """Run the full live migration of the source VM."""
        tb, orch = self.tb, self.orchestrator
        steps = VM_STEPS if agent is None else AGENT_STEPS
        runs = [MigrationRun(app, agent=agent) for app in self.apps]
        enclave_results: list[EnclaveMigrationResult] = []

        def prepare() -> int:
            # Steps ①-⑥: the guest OS quiesces and checkpoints everything.
            notify_start = tb.clock.now_ns
            tb.source.hypervisor.upcall_migration_notify(tb.source_vm)
            checkpoint_window_ns = tb.clock.now_ns - notify_start
            # Each enclave's rows before the cut-over.  On the §VI-D path
            # they escrow every K_migrate, so no remote attestation sits on
            # the resume path; that overlaps the (long) pre-copy phase, so
            # only the checkpointing window counts toward the downtime.
            for run in runs:
                orch.run_steps(run, steps_before(CUT_OVER, steps))
            return checkpoint_window_ns

        def restore() -> None:
            for run in runs:
                bytes_before = tb.network.bytes_transferred
                orch.run_steps(run, steps_from(CUT_OVER, steps))
                enclave_results.append(
                    EnclaveMigrationResult(
                        target_app=run.target,
                        replay_plan=run.plan,
                        checkpoint_bytes=run.checkpoint.envelope.size,
                        transferred_bytes=tb.network.bytes_transferred - bytes_before,
                    )
                )

        report = tb.source.qemu.migrate(
            tb.source_vm,
            prepare_hook=prepare if self.apps else None,
            restore_hook=restore if self.apps else None,
        )
        return VmMigrationResult(
            report=report,
            enclave_results=enclave_results,
            n_enclaves=len(self.apps),
        )


def migrate_plain_vm(testbed: Testbed) -> MigrationReport:
    """Baseline: migrate the source VM with no enclave involvement."""
    return testbed.source.qemu.migrate(testbed.source_vm)
