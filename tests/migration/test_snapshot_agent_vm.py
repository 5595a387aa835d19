"""Owner-keyed snapshots (§V-C), agent enclave (§VI-D), whole-VM migration."""

import pytest

from repro.durability import wal
from repro.durability.sweep import COUNTER_START, STORAGE_NOTE, build_sweep_app
from repro.errors import AttestationError, MigrationError, RestoreError
from repro.migration.agent import AgentService, build_agent_image
from repro.migration.snapshot import SnapshotManager
from repro.migration.testbed import build_testbed
from repro.migration.vm import VmMigrationManager, migrate_plain_vm
from repro.sdk import control
from repro.sdk.host import HostApplication, WorkerSpec
from repro.workloads.apps import build_app_image

from tests.conftest import build_counter_app


class TestSnapshot:
    def test_snapshot_resume_preserves_state(self, testbed):
        app = build_counter_app(testbed, tag="snap")
        app.ecall_once(0, "incr", 33)
        manager = SnapshotManager(testbed, testbed.owner)
        snapshot = manager.snapshot(app, reason="backup")
        resumed = manager.resume(snapshot, app, reason="restore")
        assert resumed.ecall_once(0, "read") == 33

    def test_source_keeps_running_after_snapshot(self, testbed):
        app = build_counter_app(testbed, tag="live")
        manager = SnapshotManager(testbed, testbed.owner)
        manager.snapshot(app, reason="backup")
        # Unlike migration, a snapshot is not a self-destroy event.
        assert app.ecall_once(0, "incr", 1) == 1

    def test_operations_audited(self, testbed):
        app = build_counter_app(testbed, tag="audit")
        manager = SnapshotManager(testbed, testbed.owner)
        snapshot = manager.snapshot(app, reason="why-1")
        manager.resume(snapshot, app, reason="why-2")
        operations = [e.operation for e in testbed.owner.audit_log]
        assert operations == ["snapshot", "resume"]
        assert testbed.owner.audit_log[0].sequence == snapshot.sequence

    def test_resume_without_prior_snapshot_rejected(self, testbed):
        app = build_counter_app(testbed, tag="norights")
        fresh = HostApplication(
            testbed.target, testbed.target_os, app.image, [], name="fresh"
        )
        fresh.library.launch(owner=None)
        quote, dh = fresh.library.control_call(
            control.owner_key_request, testbed.target.quoting_enclave, "resume"
        )
        with pytest.raises(AttestationError):
            testbed.owner.grant_resume_key(app.image.name, quote, dh, "sneaky")

    def test_double_resume_flagged(self, testbed):
        app = build_counter_app(testbed, tag="double")
        manager = SnapshotManager(testbed, testbed.owner)
        snapshot = manager.snapshot(app, reason="backup")
        manager.resume(snapshot, app, reason="one", on_target=True)
        manager.resume(snapshot, app, reason="two", on_target=False)
        assert len(testbed.owner.suspicious_rollbacks()) == 1

    def test_snapshot_sealed_with_owner_key(self, testbed):
        app = build_counter_app(testbed, tag="keyed")
        app.ecall_once(0, "incr", 0x5A5A)
        manager = SnapshotManager(testbed, testbed.owner)
        snapshot = manager.snapshot(app, reason="backup")
        assert (0x5A5A).to_bytes(8, "little") not in snapshot.envelope.to_bytes()


class TestAgentEnclave:
    def make(self, seed=300):
        tb = build_testbed(seed=seed)
        agent_built = build_agent_image(tb.builder)
        tb.owner.set_agent_image(agent_built)
        app = build_counter_app(tb, tag=f"agent{seed}")
        app.ecall_once(0, "incr", 12)
        agent = AgentService(tb, agent_built)
        return tb, app, agent

    def checkpoint(self, tb, app):
        from repro.migration.orchestrator import MigrationOrchestrator

        orch = MigrationOrchestrator(tb)
        orch.checkpoint_enclave(app)
        return orch

    def test_agent_path_end_to_end(self):
        tb, app, agent = self.make(301)
        orch = self.checkpoint(tb, app)
        agent.escrow_from(app)
        target = orch.build_virgin_target(app)
        agent.release_to(target)
        ckpt = app.library.last_checkpoint.envelope.to_bytes()
        plan = orch.restore(target, ckpt)
        target.respawn_after_restore(plan)
        assert target.ecall_once(0, "read") == 12

    def test_escrow_self_destroys_source(self):
        tb, app, agent = self.make(302)
        self.checkpoint(tb, app)
        agent.escrow_from(app)
        from repro.errors import SelfDestroyed

        with pytest.raises(SelfDestroyed):
            app.library.control_call(control.source_release_key)

    def test_single_release(self):
        tb, app, agent = self.make(303)
        orch = self.checkpoint(tb, app)
        agent.escrow_from(app)
        first = orch.build_virgin_target(app)
        second = orch.build_virgin_target(app)
        agent.release_to(first)
        with pytest.raises(MigrationError):
            agent.release_to(second)  # P-5: one instance only

    def test_release_requires_matching_measurement(self):
        tb, app, agent = self.make(304)
        self.checkpoint(tb, app)
        agent.escrow_from(app)
        other = build_counter_app(tb, tag="other-image")
        other_target = HostApplication(
            tb.target, tb.target_os, other.image, [], name="intruder"
        )
        other_target.library.launch(owner=None)
        with pytest.raises(MigrationError):
            agent.release_to(other_target)

    def test_escrow_requires_provisioned_agent_measurement(self):
        tb = build_testbed(seed=305)
        # Owner never declared an agent: source must refuse to escrow.
        agent_built = build_agent_image(tb.builder)
        tb.owner.register_image(agent_built)  # registered but NOT set_agent_image
        app = build_counter_app(tb, tag="agentless")
        from repro.migration.orchestrator import MigrationOrchestrator

        MigrationOrchestrator(tb).checkpoint_enclave(app)
        agent = AgentService(tb, agent_built)
        from repro.errors import ChannelError

        with pytest.raises(ChannelError):
            agent.escrow_from(app)


class TestVmMigration:
    def launch_apps(self, tb, n):
        apps = []
        for i in range(n):
            built = build_app_image(tb.builder, "cr4", flavor=f"vmtest{i}")
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
        return apps

    def test_plain_vm_baseline(self):
        tb = build_testbed(seed=310)
        report = migrate_plain_vm(tb)
        assert report.total_ns > 0
        assert report.prep_ns == 0

    def test_vm_with_enclaves_migrates_all(self):
        tb = build_testbed(seed=311)
        apps = self.launch_apps(tb, 3)
        result = VmMigrationManager(tb, apps).migrate()
        assert result.n_enclaves == 3
        assert len(result.enclave_results) == 3
        for enclave_result in result.enclave_results:
            assert enclave_result.target_app.ecall_once(1, "process", 2) > 0

    def test_enclaves_add_overhead_but_little(self):
        tb_base = build_testbed(seed=312)
        base = migrate_plain_vm(tb_base)
        tb = build_testbed(seed=312)
        apps = self.launch_apps(tb, 4)
        result = VmMigrationManager(tb, apps).migrate()
        assert result.report.total_ns >= base.total_ns
        overhead = (result.report.total_ns - base.total_ns) / base.total_ns
        assert overhead < 0.10  # "negligible" — paper reports 2-5%

    def test_downtime_includes_checkpointing(self):
        tb_base = build_testbed(seed=313)
        base = migrate_plain_vm(tb_base)
        tb = build_testbed(seed=313)
        apps = self.launch_apps(tb, 4)
        result = VmMigrationManager(tb, apps).migrate()
        assert result.report.downtime_ns > base.downtime_ns

    @pytest.mark.parametrize("use_agent", (False, True), ids=("channel", "agent"))
    def test_sealed_storage_follows_the_enclave(self, use_agent):
        """Sealed data and counters follow the enclave on both VM paths,
        and the source namespace is retired as after a single-enclave
        migration.  The channel path used to release K_migrate without
        ever handing the storage off, so the target refused to go live
        (StorageRolledBack) and the source was already SPENT."""
        tb = build_testbed(seed=315)
        agent = None
        if use_agent:
            agent_built = build_agent_image(tb.builder)
            tb.owner.set_agent_image(agent_built)
        app = build_sweep_app(tb, storage=True)
        if use_agent:
            agent = AgentService(tb, agent_built)
        result = VmMigrationManager(tb, [app]).migrate(agent=agent)
        target = result.enclave_results[0].target_app
        assert target.ecall_once(0, "read") == COUNTER_START
        assert (
            target.library.control_call(control.storage_get, STORAGE_NOTE[0])
            == STORAGE_NOTE[1]
        )
        ns = wal.storage_namespace(tb.source.name, app.image.name)
        assert tb.durable.counter(wal.storage_retired_counter(ns)) == 1

    def test_agent_cuts_restore_time(self):
        tb = build_testbed(seed=314)
        apps = self.launch_apps(tb, 2)
        plain = VmMigrationManager(tb, apps).migrate()

        tb2 = build_testbed(seed=314)
        agent_built = build_agent_image(tb2.builder)
        tb2.owner.set_agent_image(agent_built)
        apps2 = self.launch_apps(tb2, 2)
        agent = AgentService(tb2, agent_built)
        fast = VmMigrationManager(tb2, apps2).migrate(agent=agent)
        assert fast.report.restore_ns < plain.report.restore_ns / 5
