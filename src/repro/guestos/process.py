"""Guest processes and threads.

A :class:`GuestProcess` is one application in the guest (typically a host
application with an enclave inside its address space).  Its threads are
engine threads (:class:`repro.sim.engine.SimThread`) scheduled by the
guest scheduler on the VM's VCPUs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import SimThread, ThreadBody

SIGUSR1 = 10


class GuestThread(SimThread):
    """An OS thread belonging to a guest process."""

    def __init__(self, process: "GuestProcess", name: str, body: ThreadBody) -> None:
        super().__init__(f"{process.name}/{name}", body)
        self.process = process


class GuestProcess:
    """One guest user process: threads, signals, a host address space."""

    def __init__(self, name: str, pid: int) -> None:
        #: Allocated per kernel by ``GuestOs.spawn_process``.
        self.pid = pid
        self.name = name
        self.threads: list[GuestThread] = []
        self.signal_handlers: dict[int, Callable[[], None]] = {}
        #: Untrusted host memory of the process, used for enclave argument
        #: passing ("we pass arguments through shared memory outside the
        #: enclave", §VI-C).  Anything stored here is adversary-readable.
        self.shared_memory: dict[str, Any] = {}

    def register_signal_handler(self, signal: int, handler: Callable[[], None]) -> None:
        """What the SGX library does for SIGUSR1 before creating enclaves."""
        self.signal_handlers[signal] = handler

    def live_threads(self) -> list[GuestThread]:
        return [t for t in self.threads if not t.finished]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GuestProcess {self.name} pid={self.pid} threads={len(self.threads)}>"
