"""The untrusted SGX library (outside the enclave).

This is the host-side half of the SDK: it issues EENTER/ERESUME, owns the
AEP, dispatches the in-enclave exception handler after AEX, forwards page
faults to the driver, registers the migration signal handler, and — on
the target — drives the CSSA replay the control thread later verifies.

Everything here is *untrusted* in the paper's model: tests replace pieces
of it with lying variants and check the enclave-side logic catches them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.durability.journal import Journal
from repro.durability.wal import enclave_journal_name
from repro.errors import MigrationError
from repro.guestos.process import SIGUSR1, GuestProcess, GuestThread
from repro.sdk import control
from repro.sdk.image import FLAG_BUSY, EnclaveImage
from repro.sdk.program import AtomicEntry, EnclaveProgram, ResumableEntry, lookup_program
from repro.sdk.runtime import EnclaveRuntime
from repro.sgx import instructions as isa

if TYPE_CHECKING:  # pragma: no cover
    from repro.guestos.kernel import GuestOs
    from repro.machine import Machine
    from repro.sdk.owner import EnclaveOwner

#: Interpreter steps between injected timer interrupts (AEX).
INTERRUPT_EVERY = 6


class SgxLibrary:
    """Per-application untrusted runtime support."""

    def __init__(
        self,
        machine: "Machine",
        guest_os: "GuestOs",
        process: GuestProcess,
        image: EnclaveImage,
        journal_epoch: int = 0,
    ) -> None:
        self.machine = machine
        self.guest_os = guest_os
        self.process = process
        self.image = image
        self.program: EnclaveProgram = lookup_program(image.code_id)
        self.enclave_id: int | None = None
        self.rdrand = machine.rng.fork(f"rdrand/{image.name}/{process.pid}")
        #: Figure 9(b) ablation: SDK built without migration support
        #: (no stubs, no flags, no CSSA bookkeeping, no control thread).
        self.migration_support = True
        #: Untrusted host functions reachable from in-enclave code via
        #: the §VI-C trampolines (``rt.ocall``).
        self.ocall_handlers: dict[str, object] = {}
        self.last_checkpoint: control.CheckpointResult | None = None
        #: Checkpoint cipher.  The paper's default is RC4 (§VIII-B), but
        #: its 10 ns/B dominates the two-phase hot path; AES-NI CTR ships
        #: the same envelope format at 2.5 ns/B (see docs/PERFORMANCE.md).
        #: ``bench_ablation_ciphers`` still measures every cipher.
        self.checkpoint_algorithm = "aes-ni"
        self.checkpoint_use_installed_key = False
        #: Platform supports SGX v2 EDMM: W+X pages become migratable.
        self.sgx_v2 = False
        #: Write-ahead journal for this enclave's protocol transitions,
        #: named by machine, image and epoch (an N-hop chain's target
        #: journals under the hop number) so a rebuilt instance finds its
        #: own log again.
        self.journal_epoch = journal_epoch
        self.journal = Journal(
            machine.durable,
            enclave_journal_name(machine.name, image.name, journal_epoch),
            machine.name,
        )

    # ------------------------------------------------------------- plumbing
    @property
    def driver(self):
        return self.guest_os.driver

    @property
    def cpu(self):
        return self.machine.cpu

    def hw(self):
        if self.enclave_id is None:
            raise MigrationError("enclave was never launched")
        return self.driver.hw(self.enclave_id)

    def _fault(self, vaddr: int) -> None:
        self.driver.handle_page_fault(self.enclave_id, vaddr)

    def _charged(self, op: Callable, *args, extra_ns: Callable[[], int] | None = None, **kwargs):
        """Engine step: run ``op(*args, **kwargs)``, yield the ISA time it charged
        plus ``extra_ns()`` (read after ``op`` runs), and return its result."""
        with self.cpu.collect_charges() as charged:
            result = op(*args, **kwargs)
        yield (extra_ns() if extra_ns is not None else 0) + charged[0]
        return result

    def _runtime(self, session) -> EnclaveRuntime:
        rt = EnclaveRuntime(session, self.image, self._fault, self.rdrand, self.journal)
        rt.install_ocall_table(self.ocall_handlers)
        return rt

    def register_ocall(self, name: str, handler) -> None:
        """Install an untrusted host function reachable from the enclave."""
        self.ocall_handlers[name] = handler

    # ------------------------------------------------------------- lifecycle
    def launch(self, owner: "EnclaveOwner | None" = None) -> int:
        """Create the enclave, register the migration signal, provision."""
        self.enclave_id = self.driver.create_enclave(self.image)
        self.process.register_signal_handler(SIGUSR1, self.on_migration_signal)
        if owner is not None:
            quote, dh_public = self.control_call(
                control.provision_request, self.machine.quoting_enclave
            )
            owner_public, sealed = owner.provision(self.image.name, quote, dh_public)
            self.control_call(control.provision_complete, owner_public, sealed)
        return self.enclave_id

    def destroy(self) -> None:
        if self.enclave_id is not None:
            self.driver.destroy_enclave(self.enclave_id)
            self.enclave_id = None

    # ------------------------------------------------------------- control ecalls
    def control_call(self, fn: Callable, *args) -> Any:
        """Synchronous ecall on the control TCS (protocol operations)."""
        template = self.image.control_tcs
        session = isa.eenter(self.cpu, self.hw(), template.vaddr, aep=self)
        rt = self._runtime(session)
        rt.control_entry_stub(template.index)
        try:
            return fn(rt, *args)
        finally:
            rt.exit_stub(template.index)
            isa.eexit(session)

    def control_checkpoint_body(self) -> Iterator[int]:
        """Engine body: run two-phase checkpointing on the control TCS."""
        template = self.image.control_tcs
        cpu = self.cpu
        trace = self.machine.trace
        trace.emit("ckpt", "start", enclave=self.enclave_id)
        # One span per enclave, on its own track: a VM migration runs
        # several of these engine bodies interleaved, so per-enclave
        # tracks keep each span well-nested regardless of scheduling.
        with trace.tracer.span(
            "checkpoint.two_phase",
            party=self.machine.name,
            track=self.enclave_id,
            enclave=self.enclave_id,
            image=self.image.name,
        ):
            start_ns = self.machine.clock.now_ns
            session = yield from self._charged(
                isa.eenter, cpu, self.hw(), template.vaddr, aep=self
            )
            rt = self._runtime(session)
            rt.control_entry_stub(template.index)
            try:
                result = yield from control.generate_checkpoint(
                    rt,
                    self.machine.costs,
                    algorithm=self.checkpoint_algorithm,
                    use_installed_key=self.checkpoint_use_installed_key,
                    sgx_v2=self.sgx_v2,
                )
            except BaseException:
                # Leave the enclave cleanly so the TCS does not stay busy.
                rt.exit_stub(template.index)
                isa.eexit(session)
                raise
            rt.exit_stub(template.index)
            yield from self._charged(isa.eexit, session)
            # Hand the sealed checkpoint to the host: it lands in normal RAM
            # (where pre-copy will pick it up) and the OS learns we are ready.
            self.last_checkpoint = result
            self.process.shared_memory["checkpoint"] = result.envelope
            self.guest_os.vm.memory.park_extra_bytes(result.envelope.size)
            self.guest_os.mark_enclave_ready(self.enclave_id)
            metrics = trace.metrics
            metrics.histogram(
                "checkpoint.duration_ns", party=self.machine.name
            ).observe(self.machine.clock.now_ns - start_ns)
            metrics.counter("checkpoint.bytes").inc(result.envelope.size)
            metrics.counter("checkpoint.generated_total").inc()
        trace.emit(
            "ckpt", "done", enclave=self.enclave_id, bytes=result.memory_bytes
        )
        return result

    def on_migration_signal(self) -> None:
        """SIGUSR1 handler: start the control thread (§VI-D step ④)."""
        self.guest_os.spawn_thread(
            self.process,
            f"control-{self.image.name}",
            self.control_checkpoint_body(),
        )

    # ------------------------------------------------------------- worker ecalls
    def ecall_body(
        self,
        worker_index: int,
        entry_name: str,
        args: Any = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> Iterator[int]:
        """Engine body: one ecall on a worker TCS, with SDK stubs."""
        template = self.image.worker_tcs(worker_index)
        session = yield from self._charged(
            isa.eenter, self.cpu, self.hw(), template.vaddr, aep=self
        )
        rt = self._runtime(session)
        verdict = rt.entry_stub(template.index) if self.migration_support else "proceed"
        yield 300
        if verdict == "spin":
            # Parked in the spin region: "keep in the region until it
            # finds that the global flag is unset" (§IV-B).  On a
            # self-destroyed source that is forever.
            while rt.global_flag() == 1:
                yield 400
            rt.set_local_flag(template.index, FLAG_BUSY)
        elif verdict == "handler":
            raise MigrationError("fresh ecall entered with CSSA > 0")
        rt, result = yield from self._run_entry(rt, template, entry_name, args, regs=None)
        if self.migration_support:
            rt.exit_stub(template.index)
        yield from self._charged(isa.eexit, rt.session)
        self.process.shared_memory[f"result/{entry_name}/{worker_index}"] = result
        if self.machine.monitor is not None:
            self.machine.monitor.on_ecall_result(self)
        if on_result is not None:
            on_result(result)
        return result

    def resume_body(
        self,
        worker_index: int,
        continue_with: Callable[[], Iterator[int]] | None = None,
    ) -> Iterator[int]:
        """Engine body for the target: ERESUME a migrated worker thread."""
        template = self.image.worker_tcs(worker_index)
        session, ctx = yield from self._charged(
            isa.eresume, self.cpu, self.hw(), template.vaddr, aep=self
        )
        if ctx.get("kind") != "work":
            raise MigrationError(f"unexpected SSA context kind {ctx.get('kind')!r}")
        rt = self._runtime(session)
        rt, result = yield from self._run_entry(
            rt, template, ctx["entry"], None, regs=ctx["regs"]
        )
        rt.exit_stub(template.index)
        yield from self._charged(isa.eexit, rt.session)
        self.process.shared_memory[f"result/{ctx['entry']}/{worker_index}"] = result
        if continue_with is not None:
            yield from continue_with()
        return result

    def _run_entry(self, rt, template, entry_name, args, regs):
        """Interpreter for enclave entries, with timer-interrupt injection."""
        entry = self.program.entry(entry_name)
        if isinstance(entry, AtomicEntry):
            result = yield from self._charged(
                entry.fn, rt, args, extra_ns=lambda: entry.cost_for(args)
            )
            return rt, result
        if not isinstance(entry, ResumableEntry):  # pragma: no cover - guard
            raise MigrationError(f"unknown entry type for {entry_name!r}")

        def prepare() -> dict:
            prepared = dict(entry.prepare(rt, args))
            prepared.setdefault("__pc", 0)
            return prepared

        def step() -> None:
            entry.steps[regs["__pc"]](rt, regs)
            regs["__pc"] += 1

        if regs is None:
            regs = yield from self._charged(prepare, extra_ns=lambda: entry.step_cost_ns)
        steps_since_interrupt = 0
        while regs["__pc"] < len(entry.steps):
            if steps_since_interrupt >= INTERRUPT_EVERY:
                steps_since_interrupt = 0
                rt, regs = yield from self._interrupt_cycle(rt, template, entry_name, regs)
            yield from self._charged(step, extra_ns=lambda: entry.step_cost_ns)
            steps_since_interrupt += 1
        return rt, regs.get("result")

    def _interrupt_cycle(self, rt, template, entry_name, regs):
        """Timer interrupt: AEX, enter the SDK handler, then ERESUME.

        "if the developer defines an exception handler in the enclave,
        the SGX library will use EENTER to invoke that handler after the
        enclave is interrupted, and then use ERESUME to resume the
        execution" (§VI-C).  The SDK handler is where a long-running
        worker notices the global flag (§IV-B).
        """
        yield from self._charged(
            isa.aex, rt.session, {"kind": "work", "entry": entry_name, "regs": regs}
        )
        if not self.migration_support:
            # No SDK handler: plain ERESUME, as a stock runtime would do.
            session, ctx = yield from self._charged(
                isa.eresume, self.cpu, self.hw(), template.vaddr, aep=self
            )
            return self._runtime(session), ctx["regs"]
        handler_session = yield from self._charged(
            isa.eenter, self.cpu, self.hw(), template.vaddr, aep=self
        )
        handler_rt = self._runtime(handler_session)
        verdict = handler_rt.entry_stub(template.index)
        if verdict not in ("handler", "spin"):  # pragma: no cover - guard
            raise MigrationError(f"handler entry took path {verdict!r}")
        decision = handler_rt.handler_check(template.index)
        yield 300
        if decision == "spin":
            while handler_rt.global_flag() == 1:
                yield 500
            # Migration was cancelled: the worker may continue.
            handler_rt.set_local_flag(template.index, FLAG_BUSY)
        yield from self._charged(isa.eexit, handler_session)
        session, ctx = yield from self._charged(
            isa.eresume, self.cpu, self.hw(), template.vaddr, aep=self
        )
        return self._runtime(session), ctx["regs"]

    # ------------------------------------------------------------- target side
    def replay_cssa(self, plan: dict[int, int]) -> None:
        """Rebuild the hardware CSSA counters by EENTER/AEX replay.

        This is the §IV-C restore path: "Only the untrusted SGX library
        together with guest OS can restore the value of CSSA through
        executing the EENTER and triggering the AEX repeatedly."
        """
        for worker_index, target_cssa in sorted(plan.items()):
            template = next(
                t for t in self.image.tcs_templates if t.index == worker_index
            )
            for _ in range(target_cssa):
                session = isa.eenter(self.cpu, self.hw(), template.vaddr, aep=self)
                rt = self._runtime(session)
                rt.entry_stub(template.index)  # counted: restore mode is on
                isa.aex(session, {"kind": "replay"})
