"""Network replay attacks against the migration protocol.

"Resending all the network packets to a target enclave cannot launch a
replay attack successfully, because the control threads will establish a
new secure channel (with random session key) for each migration so that
the stale checkpoint will be considered invalid" (§VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.wiretap import Wiretap
from repro.errors import (
    ChannelError,
    IntegrityError,
    MigrationError,
    RestoreError,
    SignatureError,
)
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import Testbed, build_testbed
from repro.sdk import control
from repro.sdk.host import HostApplication, WorkerSpec
from repro.serde import unpack
from repro.workloads.mailserver import build_mailserver_image


@dataclass
class ReplayOutcome:
    """Which error stopped each replayed message (empty = not blocked)."""

    key_replay_error: str = ""
    answer_replay_error: str = ""
    checkpoint_replay_error: str = ""

    @property
    def all_blocked(self) -> bool:
        return all(
            (self.key_replay_error, self.answer_replay_error, self.checkpoint_replay_error)
        )


def run_replay_scenario(seed: int = 41) -> ReplayOutcome:
    """Run one legitimate migration, then replay everything captured."""
    tb = build_testbed(seed=seed)
    built = build_mailserver_image(tb.builder, flavor="replay")
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image,
        workers=[WorkerSpec("sent_log", repeat=0)], owner=tb.owner,
    ).launch()
    app.ecall_once(0, "create_mail", {"recipients": ["alice"], "content": "secret"})

    wiretap = Wiretap.install(tb.network)
    orch = MigrationOrchestrator(tb)
    orch.migrate_enclave(app)

    captured_key = wiretap.captured("kmigrate")[0]
    captured_answer = wiretap.captured("channel-answer")[0]
    captured_checkpoint = wiretap.captured("checkpoint")[0]
    outcome = ReplayOutcome()

    # A second virgin target, as the replaying operator would build it.
    replay_target = orch.build_virgin_target(app)

    # Replay the captured K_migrate envelope: the new instance has no
    # session key (the channel was between two other enclaves).
    try:
        replay_target.library.control_call(control.target_receive_key, captured_key)
    except (ChannelError, IntegrityError) as exc:
        outcome.key_replay_error = type(exc).__name__

    # Replay the captured channel answer against a fresh channel request:
    # the source's signature binds the *old* target's DH half.
    replay_target.library.control_call(
        control.target_channel_request, tb.target.quoting_enclave
    )
    answer = unpack(captured_answer)
    try:
        replay_target.library.control_call(
            control.target_complete_channel, answer["dh"], answer["sig"]
        )
    except SignatureError as exc:
        outcome.answer_replay_error = type(exc).__name__

    # Replay the stale checkpoint without any key at all.
    try:
        replay_target.library.control_call(
            control.target_restore_memory, captured_checkpoint
        )
    except (RestoreError, IntegrityError, MigrationError) as exc:
        outcome.checkpoint_replay_error = type(exc).__name__

    return outcome
