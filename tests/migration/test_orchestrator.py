"""End-to-end enclave migration through the orchestrator."""

import pytest

from repro.attacks.wiretap import Wiretap
from repro.errors import ChannelError, MigrationError, SelfDestroyed
from repro.migration.orchestrator import MigrationOrchestrator
from repro.sdk import control
from repro.sdk.host import WorkerSpec
from repro.sgx import instructions as isa

from tests.conftest import build_counter_app


@pytest.fixture
def orch(testbed):
    return MigrationOrchestrator(testbed)


def read_counter(app, index: int = 0):
    # Index 1 is used when worker 0's TCS may be busy with a long ecall.
    return app.ecall_once(index, "read")


class TestHappyPath:
    def test_state_moves_to_target(self, testbed, orch):
        app = build_counter_app(testbed, tag="happy")
        app.ecall_once(0, "incr", 41)
        result = orch.migrate_enclave(app)
        assert read_counter(result.target_app) == 41

    def test_target_keeps_working(self, testbed, orch):
        app = build_counter_app(testbed, tag="work")
        app.ecall_once(0, "incr", 1)
        target = orch.migrate_enclave(app).target_app
        assert target.ecall_once(0, "incr", 9) == 10

    def test_interrupted_worker_resumes_exactly(self, testbed, orch):
        app = build_counter_app(
            testbed, tag="midflight", workers=[WorkerSpec("slow_incr", args=400, repeat=1)]
        )
        for _ in range(40):
            testbed.source_os.engine.step_round()
        progress = read_counter(app, index=1)
        assert 0 < progress < 400  # genuinely mid-flight
        result = orch.migrate_enclave(app)
        assert result.replay_plan  # something was parked with CSSA > 0
        target = result.target_app
        testbed.target_os.run_until(
            lambda: not [t for t in target.process.live_threads() if "worker" in t.name]
        )
        assert read_counter(target, index=1) == 400  # no lost and no repeated work

    def test_same_measurement_both_sides(self, testbed, orch):
        app = build_counter_app(testbed, tag="mr")
        result = orch.migrate_enclave(app)
        source_mr = app.image.mrenclave
        assert result.target_app.library.hw().secs.mrenclave == source_mr

    def test_transfer_is_encrypted_on_the_wire(self, testbed, orch):
        app = build_counter_app(testbed, tag="wire")
        app.ecall_once(0, "incr", 0xDEAD)
        secret = (0xDEAD).to_bytes(8, "little")
        wiretap = Wiretap.install(testbed.network)
        orch.migrate_enclave(app)
        assert wiretap.captured("checkpoint")
        for payload in wiretap.captured("checkpoint"):
            assert secret not in payload

    def test_no_owner_involvement_during_migration(self, testbed, orch):
        app = build_counter_app(testbed, tag="noowner")
        audit_before = len(testbed.owner.audit_log)
        orch.migrate_enclave(app)
        assert len(testbed.owner.audit_log) == audit_before

    def test_checkpoint_bytes_reported(self, testbed, orch):
        app = build_counter_app(testbed, tag="bytes")
        result = orch.migrate_enclave(app)
        # The sealed blob must carry at least the raw bytes of the app's
        # ~22 readable pages (the compact v2 body ships pages raw, so the
        # envelope is only slightly larger than the page content itself).
        assert result.checkpoint_bytes > 22 * 4096
        assert result.transferred_bytes >= result.checkpoint_bytes


class TestSelfDestroy:
    def test_source_never_runs_again(self, testbed, orch):
        app = build_counter_app(testbed, tag="destroyed")
        orch.migrate_enclave(app)
        thread = testbed.source_os.spawn_thread(
            app.process, "zombie", app.library.ecall_body(0, "incr", 1)
        )
        for _ in range(300):
            testbed.source_os.engine.step_round()
        assert not thread.finished

    def test_second_checkpoint_refused(self, testbed, orch):
        app = build_counter_app(testbed, tag="twice")
        orch.migrate_enclave(app)
        with pytest.raises(SelfDestroyed):
            orch.checkpoint_enclave(app)

    def test_second_key_release_refused(self, testbed, orch):
        app = build_counter_app(testbed, tag="rekey")
        orch.migrate_enclave(app)
        with pytest.raises(SelfDestroyed):
            app.library.control_call(control.source_release_key)

    def test_global_flag_stays_set(self, testbed, orch):
        app = build_counter_app(testbed, tag="flag")
        orch.migrate_enclave(app)
        template = app.image.control_tcs
        session = isa.eenter(testbed.source.cpu, app.library.hw(), template.vaddr)
        rt = app.library._runtime(session)
        assert rt.global_flag() == 1
        isa.eexit(session)


class TestSingleChannel:
    def test_second_target_rejected(self, testbed, orch):
        app = build_counter_app(testbed, tag="single")
        orch.checkpoint_enclave(app)
        first = orch.build_virgin_target(app)
        second = orch.build_virgin_target(app)
        orch.establish_channel(app, first)
        with pytest.raises(ChannelError):
            orch.establish_channel(app, second)

    def test_key_requires_checkpoint(self, testbed, orch):
        app = build_counter_app(testbed, tag="nockpt")
        target = orch.build_virgin_target(app)
        orch.establish_channel(app, target)
        with pytest.raises(MigrationError):
            app.library.control_call(control.source_release_key)

    def test_key_requires_channel(self, testbed, orch):
        app = build_counter_app(testbed, tag="nochan")
        orch.checkpoint_enclave(app)
        with pytest.raises(ChannelError):
            app.library.control_call(control.source_release_key)

    def test_unprovisioned_source_cannot_open_channel(self, testbed, orch):
        app = build_counter_app(testbed, tag="unprov", provision=False)
        orch.checkpoint_enclave(app)
        target = orch.build_virgin_target(app)
        with pytest.raises(ChannelError):
            orch.establish_channel(app, target)


class TestCancellation:
    def test_cancel_resumes_workers(self, testbed, orch):
        app = build_counter_app(
            testbed, tag="cancel", workers=[WorkerSpec("slow_incr", args=200, repeat=1)]
        )
        for _ in range(30):
            testbed.source_os.engine.step_round()
        orch.checkpoint_enclave(app)
        orch.cancel(app)
        testbed.source_os.run_until(
            lambda: not [t for t in app.process.live_threads() if "worker" in t.name],
            max_rounds=200_000,
        )
        assert read_counter(app, index=1) == 200  # the worker finished after cancel

    def test_cancel_deletes_kmigrate(self, testbed, orch):
        app = build_counter_app(testbed, tag="wipe")
        orch.checkpoint_enclave(app)
        envelope = app.library.last_checkpoint.envelope
        orch.cancel(app)
        template = app.image.control_tcs
        session = isa.eenter(testbed.source.cpu, app.library.hw(), template.vaddr)
        rt = app.library._runtime(session)
        channel = rt.load_obj("__channel__")
        assert "kmigrate" not in channel
        isa.eexit(session)

    def test_cancel_after_key_release_impossible(self, testbed, orch):
        app = build_counter_app(testbed, tag="toolate")
        orch.migrate_enclave(app)
        with pytest.raises(SelfDestroyed):
            orch.cancel(app)

    def test_migration_after_cancel_succeeds(self, testbed, orch):
        app = build_counter_app(testbed, tag="retry")
        app.ecall_once(0, "incr", 7)
        orch.checkpoint_enclave(app)
        orch.cancel(app)
        result = orch.migrate_enclave(app)
        assert read_counter(result.target_app) == 7
