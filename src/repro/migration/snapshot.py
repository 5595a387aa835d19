"""Legal checkpoint/resume with owner involvement (§V-C).

"The only difference is that for encrypting the checkpoint, the control
thread will retrieve an encryption key (K_encrypt) from the enclave owner
instead of generating a random one ... Thus, all the checkpoint/resume
operations are logged.  By auditing the log, an owner can check
suspicious rollbacks."

Technically identical to a migration checkpoint; the trust difference is
that the key round-trips through the owner, putting a human-auditable
record in front of every resume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.authenc import Envelope
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import Testbed
from repro.sdk import control
from repro.sdk.host import HostApplication
from repro.sdk.owner import EnclaveOwner


@dataclass
class Snapshot:
    """An owner-keyed enclave snapshot on (simulated) disk."""

    image_name: str
    sequence: int
    envelope: Envelope

    @property
    def size(self) -> int:
        return self.envelope.size


class SnapshotManager:
    """Drives §V-C checkpoint/resume through the owner."""

    def __init__(self, testbed: Testbed, owner: EnclaveOwner) -> None:
        self.tb = testbed
        self.owner = owner
        self.orchestrator = MigrationOrchestrator(testbed)

    def snapshot(self, app: HostApplication, reason: str) -> Snapshot:
        """Take an owner-keyed snapshot of a running enclave app."""
        with self.tb.trace.tracer.span(
            "snapshot.take",
            party="source",
            image=app.image.name,
            reason=reason,
        ):
            library = app.library
            quote, dh_public = library.control_call(
                control.owner_key_request, app.machine.quoting_enclave, "snapshot"
            )
            owner_public, sealed = self.owner.grant_snapshot_key(
                app.image.name, quote, dh_public, reason
            )
            library.control_call(
                control.owner_key_install, owner_public, sealed, "snapshot"
            )

            library.checkpoint_use_installed_key = True
            library.last_checkpoint = None
            try:
                self.orchestrator.checkpoint_enclave(app)
            finally:
                library.checkpoint_use_installed_key = False
            result = library.last_checkpoint
            self.owner.record_snapshot(app.image.name, result.sequence)
            # The invariant monitor watches this: snapshot sequences per
            # image must be strictly increasing, or a rolled-back lineage
            # is quietly generating checkpoints.
            self.tb.trace.emit(
                "snapshot", "take", image=app.image.name, sequence=result.sequence
            )
            # A snapshot is not a migration: the enclave resumes right away.
            library.control_call(control.source_cancel_migration)
            library.last_checkpoint = None
            return Snapshot(app.image.name, result.sequence, result.envelope)

    def resume(
        self,
        snapshot: Snapshot,
        app_template: HostApplication,
        reason: str,
        on_target: bool = True,
    ) -> HostApplication:
        """Resume a snapshot into a fresh, owner-attested enclave."""
        tb = self.tb
        machine = tb.target if on_target else tb.source
        guest_os = tb.target_os if on_target else tb.source_os
        with tb.trace.tracer.span(
            "snapshot.resume",
            party="target" if on_target else "source",
            image=snapshot.image_name,
            sequence=snapshot.sequence,
            reason=reason,
        ):
            fresh = HostApplication(
                machine,
                guest_os,
                app_template.image,
                app_template.workers,
                owner=None,
                name=f"{snapshot.image_name}-resumed",
            )
            fresh.library.launch(owner=None)
            quote, dh_public = fresh.library.control_call(
                control.owner_key_request, machine.quoting_enclave, "resume"
            )
            owner_public, sealed = self.owner.grant_resume_key(
                snapshot.image_name, quote, dh_public, reason
            )
            fresh.library.control_call(
                control.owner_key_install, owner_public, sealed, "resume"
            )

            checkpoint_bytes = snapshot.envelope.to_bytes()
            plan = self.orchestrator.restore(fresh, checkpoint_bytes)
            fresh.respawn_after_restore(plan)
            guest_os.end_migration()
            tb.trace.emit(
                "snapshot",
                "resume",
                image=snapshot.image_name,
                sequence=snapshot.sequence,
            )
            return fresh
