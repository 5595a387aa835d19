"""Whole-VM suspend / resume with enclaves (§V-C at VM scale).

Footnote 1 of the paper: "We uniformly term VM suspension, resuming and
live migration as live migration since the key steps of live migration
involve suspending and resuming a VM."  A suspension writes the VM image
to (shared) storage instead of a peer machine; because no target enclave
exists to attest, the enclaves' checkpoints must use owner-granted
K_encrypt — making every later resume an owner-audited operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MigrationError
from repro.migration.snapshot import Snapshot, SnapshotManager
from repro.migration.testbed import Testbed
from repro.sdk.host import HostApplication
from repro.sgx.structures import PAGE_SIZE


@dataclass
class VmImage:
    """A suspended VM on disk: RAM size + per-enclave sealed snapshots."""

    vm_name: str
    ram_bytes: int
    snapshots: list[Snapshot] = field(default_factory=list)
    #: The host applications' specs, needed to rebuild processes (this is
    #: ordinary data inside the image; nothing secret).
    app_templates: list[HostApplication] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return self.ram_bytes + sum(s.size for s in self.snapshots)


class VmSuspendManager:
    """Suspend a VM (with enclaves) to an image; resume it elsewhere."""

    def __init__(self, testbed: Testbed, apps: list[HostApplication]) -> None:
        self.tb = testbed
        self.apps = apps
        self.snapshots = SnapshotManager(testbed, testbed.owner)

    def suspend(self, reason: str) -> VmImage:
        """Write the source VM to an image and pause it.

        Each enclave takes an owner-keyed snapshot (so the image can be
        resumed later, under audit), then the VM stops: its RAM is
        written to storage at disk bandwidth.
        """
        vm = self.tb.source_vm
        if vm.paused:
            raise MigrationError("VM is already suspended")
        with self.tb.trace.tracer.span("vm.suspend", party="source", vm=vm.name):
            image = VmImage(vm_name=vm.name, ram_bytes=vm.memory.used_pages * PAGE_SIZE)
            for app in self.apps:
                image.snapshots.append(self.snapshots.snapshot(app, reason=reason))
                image.app_templates.append(app)
            # Write RAM to storage (modelled at the migration link's rate).
            self.tb.clock.advance(self.tb.costs.net_transfer_ns(image.ram_bytes))
            vm.pause()
        self.tb.trace.metrics.counter("vm.suspends_total").inc()
        self.tb.trace.emit(
            "qemu", "suspended", vm=vm.name, image_mb=image.size_bytes // (1024 * 1024)
        )
        return image

    def resume(self, image: VmImage, reason: str, on_target: bool = True) -> list[HostApplication]:
        """Bring a suspended image back up; every enclave re-attests.

        "When resuming, the control thread must use remote attestation to
        retrieve the corresponding K_encrypt from the enclave owner.
        Thus, all the checkpoint/resume operations are logged" (§V-C).
        """
        machine = self.tb.target if on_target else self.tb.source
        with self.tb.trace.tracer.span(
            "vm.resume", party=machine.name, vm=image.vm_name
        ):
            # Read RAM back from storage.
            self.tb.clock.advance(self.tb.costs.net_transfer_ns(image.ram_bytes))
            resumed = []
            for snapshot, template in zip(image.snapshots, image.app_templates):
                resumed.append(
                    self.snapshots.resume(
                        snapshot, template, reason=reason, on_target=on_target
                    )
                )
        self.tb.trace.metrics.counter("vm.resumes_total").inc()
        self.tb.trace.emit("qemu", "resumed", vm=image.vm_name, machine=machine.name)
        return resumed
