"""Host applications: the untrusted process wrapping an enclave.

A :class:`HostApplication` owns a guest process, launches the enclave via
the SGX library, and runs worker threads that ecall into it according to
:class:`WorkerSpec`.  After a migration the target side re-creates the
host application and the library resumes interrupted workers from their
restored SSA state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import MigrationError
from repro.sdk.image import EnclaveImage
from repro.sdk.library import SgxLibrary

if TYPE_CHECKING:  # pragma: no cover
    from repro.guestos.kernel import GuestOs
    from repro.machine import Machine
    from repro.sdk.owner import EnclaveOwner


@dataclass(frozen=True)
class WorkerSpec:
    """What one worker thread does.

    ``repeat`` is the number of ecalls the host loop performs; ``None``
    means loop forever (a server).  ``args_fn(iteration)`` produces each
    call's arguments.
    """

    entry: str
    args: Any = None
    repeat: int | None = 1
    args_fn: Callable[[int], Any] | None = None
    #: Host-side pause between ecalls.  Above ~10us the thread genuinely
    #: sleeps (yields its VCPU) instead of busy-waiting, which matters
    #: for scheduling-contention experiments like Figure 9(c).
    think_time_ns: int = 1_000

    def args_for(self, iteration: int) -> Any:
        return self.args_fn(iteration) if self.args_fn is not None else self.args


class HostApplication:
    """One enclave application inside a guest VM."""

    def __init__(
        self,
        machine: "Machine",
        guest_os: "GuestOs",
        image: EnclaveImage,
        workers: list[WorkerSpec],
        owner: "EnclaveOwner | None" = None,
        name: str | None = None,
        journal_epoch: int = 0,
    ) -> None:
        if len(workers) > image.n_workers:
            raise MigrationError(
                f"image {image.name} has {image.n_workers} worker TCS, "
                f"{len(workers)} requested"
            )
        self.machine = machine
        self.guest_os = guest_os
        self.image = image
        self.workers = workers
        self.owner = owner
        self.process = guest_os.spawn_process(name or image.name)
        self.library = SgxLibrary(machine, guest_os, self.process, image, journal_epoch)
        self.results: dict[str, list[Any]] = {}
        #: Host-loop progress per worker.  This lives in ordinary process
        #: memory, so on migration it travels with the VM: the target
        #: resumes each loop where it left off instead of replaying it.
        self.completed_iterations: list[int] = [0] * len(workers)

    # ------------------------------------------------------------- lifecycle
    def launch(self) -> "HostApplication":
        """Create the enclave, provision it, start the worker threads."""
        self.library.launch(self.owner)
        for index, spec in enumerate(self.workers):
            self.guest_os.spawn_thread(
                self.process,
                f"worker-{index}",
                self._worker_loop(index, spec),
            )
        return self

    def _record(self, entry: str, result: Any) -> None:
        self.results.setdefault(entry, []).append(result)

    def _worker_loop(self, index: int, spec: WorkerSpec, start_iteration: int = 0) -> Iterator[int]:
        from repro.sim.engine import Block

        iteration = start_iteration
        while spec.repeat is None or iteration < spec.repeat:
            result = yield from self.library.ecall_body(
                index, spec.entry, spec.args_for(iteration)
            )
            self._record(spec.entry, result)
            iteration += 1
            self.completed_iterations[index] = iteration
            if spec.think_time_ns > 10_000:
                wake_at = self.machine.clock.now_ns + spec.think_time_ns
                yield Block(lambda: self.machine.clock.now_ns >= wake_at)
            else:
                yield spec.think_time_ns  # busy host-side gap

    # ------------------------------------------------------------- target side
    def respawn_after_restore(self, replay_plan: dict[int, int]) -> None:
        """Start target-side worker threads after a successful restore.

        Workers whose checkpointed CSSA was non-zero are resumed from
        their SSA frame (ERESUME path) — their in-flight ecall is
        iteration ``completed_iterations[i]`` and the host loop continues
        after it.  The rest re-enter their loop at their recorded
        position; a loop that already finished is not restarted.
        """
        for index, spec in enumerate(self.workers):
            tcs_index = self.image.worker_tcs(index).index
            done = self.completed_iterations[index]
            if replay_plan.get(tcs_index, 0) > 0:
                def continue_loop(i=index, s=spec, next_iteration=done + 1):
                    self.completed_iterations[i] = next_iteration
                    yield from self._worker_loop(i, s, next_iteration)

                body = self.library.resume_body(index, continue_with=continue_loop)
            else:
                if spec.repeat is not None and done >= spec.repeat:
                    continue  # this worker's loop had already finished
                body = self._worker_loop(index, spec, start_iteration=done)
            self.guest_os.spawn_thread(self.process, f"worker-{index}", body)

    def destroy(self) -> None:
        """Tear down the enclave (driver EREMOVE path)."""
        self.library.destroy()

    def ecall_once(self, index: int, entry: str, args: Any = None) -> Any:
        """Synchronous convenience: run one ecall to completion now."""
        thread = self.guest_os.spawn_thread(
            self.process, f"oneshot-{entry}", self.library.ecall_body(index, entry, args)
        )
        self.guest_os.run_until(lambda: thread.finished)
        return thread.result
