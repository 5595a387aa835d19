"""P-6 (minimal TCB): the enclave catches a lying untrusted stack.

Every component outside the enclave — SGX library, guest OS, hypervisor,
operator tooling — is adversarial.  These tests replace pieces of the
restore path with hostile variants and check the in-enclave verification
(§III step-4, §IV-C) refuses to go live.
"""

import pytest

from repro.attacks.wiretap import Wiretap
from repro.errors import CssaMismatch, IntegrityError, MigrationError, RestoreError
from repro.migration.orchestrator import MigrationOrchestrator, MigrationRun
from repro.migration.protocol import STEP_RESTORE, steps_before
from repro.sdk import control
from repro.sdk.host import WorkerSpec
from repro.sgx import instructions as isa

from tests.conftest import build_counter_app, make_counter_program


@pytest.fixture
def orch(testbed):
    return MigrationOrchestrator(testbed)


def run_until_restore(orch, app) -> MigrationRun:
    """Run the protocol table up to (not including) the restore step."""
    run = MigrationRun(app)
    orch.run_steps(run, steps_before(STEP_RESTORE))
    return run


def migrate_until_restore(testbed, orch, tag):
    """A parked worker's enclave, migrated up to the restore step."""
    app = build_counter_app(
        testbed, tag=tag, workers=[WorkerSpec("slow_incr", args=500, repeat=1)]
    )
    for _ in range(40):
        testbed.source_os.engine.step_round()
    run = run_until_restore(orch, app)
    return app, run.target, run.delivered


class TestLyingLibraryCssa:
    def test_skipped_replay_detected(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "skip")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        assert plan  # there is something to replay
        # The library "forgets" to replay: step-4 must catch it.
        with pytest.raises(CssaMismatch):
            target.library.control_call(control.target_verify_and_finish)

    def test_extra_replay_detected(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "extra")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        inflated = {idx: cssa + 1 for idx, cssa in plan.items()}
        target.library.replay_cssa(inflated)
        with pytest.raises(CssaMismatch):
            target.library.control_call(control.target_verify_and_finish)

    def test_replay_on_wrong_tcs_detected(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "wrongtcs")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        assert plan == {0: 1}
        target.library.replay_cssa({1: 1})  # replays the idle worker instead
        with pytest.raises(CssaMismatch):
            target.library.control_call(control.target_verify_and_finish)

    def test_honest_replay_passes(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "honest")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        target.library.replay_cssa(plan)
        target.library.control_call(control.target_verify_and_finish)  # no raise


class TestHostileRestoreInputs:
    def test_checkpoint_for_other_image_rejected(self, testbed, orch):
        app_a = build_counter_app(testbed, tag="img-a")
        app_b = build_counter_app(testbed, tag="img-b")
        orch.checkpoint_enclave(app_a)
        target_b = run_until_restore(orch, app_b).target
        # Operator feeds B's enclave the checkpoint of A.
        ckpt_a = app_a.library.last_checkpoint.envelope.to_bytes()
        with pytest.raises((RestoreError, IntegrityError)):
            target_b.library.control_call(control.target_restore_memory, ckpt_a)

    def test_restore_without_key_rejected(self, testbed, orch):
        app = build_counter_app(testbed, tag="nokey")
        orch.checkpoint_enclave(app)
        target = orch.build_virgin_target(app)
        ckpt = app.library.last_checkpoint.envelope.to_bytes()
        with pytest.raises(RestoreError):
            target.library.control_call(control.target_restore_memory, ckpt)

    def test_stale_checkpoint_sequence_rejected(self, testbed, orch):
        # Operator keeps checkpoint #1, cancels, then lets the enclave
        # checkpoint again (#2) and migrates — feeding the target the
        # stale #1 must fail even though both were sealed by the same
        # enclave: K_migrate is fresh per checkpoint.
        app = build_counter_app(testbed, tag="stale")
        orch.checkpoint_enclave(app)
        stale = app.library.last_checkpoint.envelope.to_bytes()
        orch.cancel(app)
        target = run_until_restore(orch, app).target  # checkpoints again
        with pytest.raises((RestoreError, IntegrityError)):
            target.library.control_call(control.target_restore_memory, stale)

    def test_tampered_immutable_page_rejected(self, testbed, orch):
        # A checkpoint claiming different *code* bytes must not restore:
        # immutable pages are verified against the measured virgin image.
        from repro.crypto.keys import SymmetricKey
        from repro.migration.checkpoint import open_checkpoint, seal_checkpoint

        app = build_counter_app(testbed, tag="immutable")
        target = run_until_restore(orch, app).target
        # Rebuild the envelope with a mutated read-only key page, sealed
        # under the *correct* key (a malicious enclave-author scenario is
        # out of scope; this models checkpoint forgery with a stolen key).
        session = isa.eenter(testbed.source.cpu, app.library.hw(), app.image.control_tcs.vaddr)
        rt = app.library._runtime(session)
        kmigrate = SymmetricKey(rt.load_obj("__channel__")["kmigrate"], "k")
        isa.eexit(session)
        ckpt = open_checkpoint(
            kmigrate, app.library.last_checkpoint.envelope
        )
        key_page = app.image.layout.key_page_vaddr
        ckpt.pages[key_page] = b"\xee" * 4096
        forged = seal_checkpoint(ckpt, kmigrate, b"m" * 16).to_bytes()
        with pytest.raises(RestoreError):
            target.library.control_call(control.target_restore_memory, forged)


class TestConfidentialityOnHost:
    def test_no_plaintext_key_in_untrusted_memory(self, testbed, orch):
        app = build_counter_app(testbed, tag="leak")
        wiretap = Wiretap.install(testbed.network)
        result = orch.migrate_enclave(app)
        # Scrape everything the untrusted side ever saw.
        session = isa.eenter(
            testbed.target.cpu, result.target_app.library.hw(),
            result.target_app.image.control_tcs.vaddr,
        )
        rt = result.target_app.library._runtime(session)
        kmigrate = rt.load_obj("__channel__")["kmigrate"]
        isa.eexit(session)
        # Wire payloads are serde-packed, which writes bytes as hex: a key
        # sent in the clear would show up in either form.
        assert wiretap.sends
        for _, payload in wiretap.sends:
            assert kmigrate not in payload
            assert kmigrate.hex().encode() not in payload
        for value in app.process.shared_memory.values():
            blob = value.to_bytes() if hasattr(value, "to_bytes") else b""
            assert kmigrate not in blob


class TestCheckpointOpenedOnce:
    """Step 3 opens the checkpoint; step 4 reads only its restore record."""

    def test_one_migration_opens_the_checkpoint_once(self, testbed, orch, monkeypatch):
        opened = []
        real_open = control.open_checkpoint

        def counting_open(key, envelope):
            opened.append(envelope.size)
            return real_open(key, envelope)

        monkeypatch.setattr(control, "open_checkpoint", counting_open)
        app = build_counter_app(
            testbed, tag="open-once", workers=[WorkerSpec("slow_incr", args=500, repeat=1)]
        )
        for _ in range(40):
            testbed.source_os.engine.step_round()
        result = orch.migrate_enclave(app)
        assert result.replay_plan  # the verify step had CSSA work to check
        assert opened == [result.checkpoint_bytes]

    def test_verify_without_a_restore_is_refused(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "no-restore")
        with pytest.raises(RestoreError, match="no checkpoint restore"):
            target.library.control_call(control.target_verify_and_finish)

    def test_restore_record_belongs_to_its_instance(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "other-instance")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        target.library.replay_cssa(plan)
        # A second instance of the same image, with the same key journaled
        # nowhere: it never restored, so it has nothing to go live with.
        twin = orch.build_virgin_target(app)
        with pytest.raises(RestoreError, match="no checkpoint restore"):
            twin.library.control_call(control.target_verify_and_finish)
        target.library.control_call(control.target_verify_and_finish)  # no raise

    def test_failed_restore_leaves_no_record(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "failed-restore")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        target.library.replay_cssa(plan)
        tampered = bytearray(ckpt)
        tampered[len(tampered) // 2] ^= 0x01
        with pytest.raises(IntegrityError):
            target.library.control_call(control.target_restore_memory, bytes(tampered))
        # The good restore's record was cleared when the bad one started.
        with pytest.raises(RestoreError, match="no checkpoint restore"):
            target.library.control_call(control.target_verify_and_finish)

    def test_record_is_dropped_at_go_live(self, testbed, orch):
        app, target, ckpt = migrate_until_restore(testbed, orch, "go-live")
        plan = target.library.control_call(control.target_restore_memory, ckpt)
        target.library.replay_cssa(plan)
        target.library.control_call(control.target_verify_and_finish)
        with pytest.raises(RestoreError, match="no checkpoint restore"):
            target.library.control_call(control.target_verify_and_finish)
