"""On-the-wire tampering with the sealed checkpoint (P-2, integrity).

The adversary owns the network (and the disk the checkpoint crosses).
Every modification — a single flipped bit, truncation, wholesale
substitution — must be detected before any state is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    CryptoError,
    IntegrityError,
    MigrationAborted,
    MigrationError,
    RestoreError,
)
from repro.migration.checkpoint import frame_payload, reframe
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sdk.host import HostApplication, WorkerSpec
from repro.workloads.mailserver import build_mailserver_image


@dataclass
class TamperOutcome:
    """Whether the target detected the tampering, and with which error."""

    mode: str
    detected: bool
    error: str
    #: Whether the run's target enclave still exists when it ends.
    target_exists: bool = False


def _flip_byte(payload: bytes, offset_from_end: int = 100) -> bytes:
    index = max(0, len(payload) - offset_from_end)
    mutated = bytearray(payload)
    mutated[index] ^= 0x40
    return bytes(mutated)


def _rewrite_chunk(frame: bytes) -> bytes:
    """``frame`` with one payload byte flipped and its frame digest
    recomputed, so that the chunk reassembler accepts it."""
    payload = frame_payload(frame)
    return reframe(frame, _flip_byte(payload, len(payload) // 2))


def run_tamper_scenario(mode: str = "flip", seed: int = 53) -> TamperOutcome:
    """Migrate with a tampering network tap; report what the target did.

    Modes: ``flip`` (one bit in the ciphertext), ``truncate`` (drop the
    tail), ``substitute`` (replace with an older capture of itself —
    degenerate here, same bytes, so it must *succeed*; used as the
    control case by the tests), and ``chunk``: under
    :data:`FAULT_TOLERANT_RETRY` one ``checkpoint-chunk`` frame's payload
    is rewritten with its frame digest recomputed, so that only the
    envelope MAC can refuse it.  A refusal after the point of no return
    aborts the migration; the outcome names the refusal behind it.
    """
    tb = build_testbed(seed=seed)
    built = build_mailserver_image(tb.builder, flavor=f"tamper-{mode}")
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image,
        workers=[WorkerSpec("sent_log", repeat=0)], owner=tb.owner,
    ).launch()
    app.ecall_once(0, "create_mail", {"recipients": ["alice"], "content": "xxx"})

    rewritten = []

    def tamper_tap(label: str, payload: bytes) -> bytes | None:
        if mode == "chunk":
            if label != "checkpoint-chunk" or rewritten:
                return None
            rewritten.append(_rewrite_chunk(payload))
            return rewritten[0]
        if label != "checkpoint":
            return None
        if mode == "flip":
            return _flip_byte(payload)
        if mode == "truncate":
            return payload[: len(payload) // 2]
        return None  # substitute/control: deliver unchanged

    tb.network.add_tap(tamper_tap)
    orch = MigrationOrchestrator(tb, retry=FAULT_TOLERANT_RETRY if mode == "chunk" else None)
    detected, error = False, ""
    try:
        orch.migrate_enclave(app)
    except (IntegrityError, RestoreError, CryptoError, MigrationError) as exc:
        if isinstance(exc, MigrationAborted) and exc.__cause__ is not None:
            exc = exc.__cause__
        detected, error = True, type(exc).__name__
    target = orch.run.target if orch.run is not None else None
    exists = target is not None and target.library.enclave_id is not None
    return TamperOutcome(mode, detected, error, target_exists=exists)
