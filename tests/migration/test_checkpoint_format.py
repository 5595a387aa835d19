"""Checkpoint format, sealing and the two-phase generation mechanics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import SymmetricKey
from repro.errors import IntegrityError
from repro.migration.checkpoint import (
    EnclaveCheckpoint,
    TcsState,
    open_checkpoint,
    seal_checkpoint,
)
from repro.migration.orchestrator import MigrationOrchestrator, MigrationRun
from repro.migration.protocol import STEP_RESUME, steps_before
from repro.sdk.host import WorkerSpec
from repro.sdk.image import FLAG_FREE, FLAG_SPIN
from repro.serde import SerdeError

from tests.conftest import build_counter_app


def make_checkpoint(n_pages=3, seq=1):
    return EnclaveCheckpoint(
        image_name="img",
        code_id="code-v1",
        mrenclave=b"\xaa" * 32,
        sequence=seq,
        pages={0x1000 * (i + 1): bytes([i]) * 4096 for i in range(n_pages)},
        tcs_states=[TcsState(0, 0, FLAG_FREE), TcsState(1, 1, FLAG_SPIN)],
        skipped_pages=[0x9000],
    )


class TestCheckpointFormat:
    def test_bytes_roundtrip(self):
        ckpt = make_checkpoint()
        again = EnclaveCheckpoint.from_bytes(ckpt.to_bytes())
        assert again.pages == ckpt.pages
        assert again.tcs_states == ckpt.tcs_states
        assert again.skipped_pages == ckpt.skipped_pages
        assert again.sequence == ckpt.sequence
        assert again.mrenclave == ckpt.mrenclave

    def test_memory_bytes(self):
        assert make_checkpoint(n_pages=4).memory_bytes == 4 * 4096

    def test_tcs_state_lookup(self):
        ckpt = make_checkpoint()
        assert ckpt.tcs_state(1).cssa == 1
        from repro.errors import RestoreError

        with pytest.raises(RestoreError):
            ckpt.tcs_state(9)

    def test_seal_open_roundtrip(self):
        key = SymmetricKey(b"\x01" * 32, "k")
        env = seal_checkpoint(make_checkpoint(), key, b"n" * 16)
        opened = open_checkpoint(key, env)
        assert opened.pages == make_checkpoint().pages

    def test_sealed_is_confidential(self):
        key = SymmetricKey(b"\x01" * 32, "k")
        ckpt = make_checkpoint()
        ckpt.pages[0x1000] = b"TOP-SECRET-ACCOUNT-DATA!" * 100
        env = seal_checkpoint(ckpt, key, b"n" * 16)
        assert b"TOP-SECRET-ACCOUNT-DATA!" not in env.to_bytes()

    def test_wrong_key_rejected(self):
        env = seal_checkpoint(make_checkpoint(), SymmetricKey(b"\x01" * 32, "a"), b"n" * 16)
        with pytest.raises(IntegrityError):
            open_checkpoint(SymmetricKey(b"\x02" * 32, "b"), env)

    @pytest.mark.parametrize("algorithm", ["rc4", "des", "aes", "aes-ni"])
    def test_all_ciphers(self, algorithm):
        key = SymmetricKey(b"\x03" * 32, "k")
        env = seal_checkpoint(make_checkpoint(), key, b"n" * 16, algorithm)
        assert open_checkpoint(key, env).sequence == 1

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, n_pages):
        ckpt = make_checkpoint(n_pages=n_pages)
        assert EnclaveCheckpoint.from_bytes(ckpt.to_bytes()).memory_bytes == ckpt.memory_bytes


def _legacy_json_checkpoint() -> bytes:
    """A checkpoint in the all-JSON format that preceded ECKPT2."""
    from repro.serde import pack

    ckpt = make_checkpoint()
    return pack(
        {
            "image_name": ckpt.image_name,
            "code_id": ckpt.code_id,
            "mrenclave": ckpt.mrenclave,
            "sequence": ckpt.sequence,
            "pages": {f"{vaddr:x}": data for vaddr, data in ckpt.pages.items()},
            "tcs": [
                {"index": s.index, "cssa": s.cssa, "flag": s.local_flag}
                for s in ckpt.tcs_states
            ],
            "skipped": ckpt.skipped_pages,
        }
    )


class TestForeignBlobs:
    @pytest.mark.parametrize(
        "blob",
        [b"{}", b"[1,2]", b"garbage", _legacy_json_checkpoint()],
        ids=["empty-object", "list", "garbage", "legacy-json"],
    )
    def test_blob_without_magic_is_refused(self, blob):
        with pytest.raises(SerdeError, match="not an ECKPT2 checkpoint"):
            EnclaveCheckpoint.from_bytes(blob)


class TestTwoPhaseGeneration:
    def test_checkpoint_covers_all_readable_pages(self, testbed):
        app = build_counter_app(testbed, tag="cover")
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        result = app.library.last_checkpoint
        key_rt_pages = set(app.image.readable_reg_vaddrs())
        from repro.crypto.keys import SymmetricKey as SK

        # The checkpoint body length matches all readable REG pages.
        assert result.memory_bytes == len(key_rt_pages) * 4096

    def test_idle_workers_checkpoint_as_free(self, testbed):
        app = build_counter_app(testbed, tag="idle")
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        assert app.library.last_checkpoint.skipped_pages == 0

    def test_busy_worker_parks_before_dump(self, testbed):
        app = build_counter_app(
            testbed, tag="busy", workers=[WorkerSpec("slow_incr", args=5000, repeat=1)]
        )
        for _ in range(30):
            testbed.source_os.engine.step_round()
        orch = MigrationOrchestrator(testbed)
        orch.checkpoint_enclave(app)
        # The long-running worker was parked via AEX + handler: its TCS
        # must appear in the replay plan with CSSA 1 after restore.
        run = MigrationRun(app)
        orch.run_steps(run, steps_before(STEP_RESUME))
        assert run.plan == {0: 1}

    def test_sequence_increments_per_checkpoint(self, testbed):
        from repro.sdk import control

        app = build_counter_app(testbed, tag="seq")
        orch = MigrationOrchestrator(testbed)
        orch.checkpoint_enclave(app)
        first = app.library.last_checkpoint.sequence
        orch.cancel(app)
        orch.checkpoint_enclave(app)
        assert app.library.last_checkpoint.sequence == first + 1

    def test_unreadable_page_skipped(self, testbed):
        from tests.conftest import make_counter_program

        built = testbed.builder.build(
            "counter-wx",
            make_counter_program("wx"),
            n_workers=2,
            global_names=("counter",),
            add_unreadable_page=True,
        )
        testbed.owner.register_image(built)
        from repro.sdk.host import HostApplication

        app = HostApplication(
            testbed.source, testbed.source_os, built.image, workers=[], owner=testbed.owner
        ).launch()
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        # The §IV-B SGX v1 limitation: the W+X page cannot be dumped.
        assert app.library.last_checkpoint.skipped_pages == 1
