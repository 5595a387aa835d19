"""Enclave programs: what developers write.

An :class:`EnclaveProgram` is the enclave's code.  Two entry flavours:

* :class:`AtomicEntry` — a plain function; runs to completion within one
  scheduling step, so it can never be interrupted mid-flight.  Right for
  short request handlers and compute kernels.
* :class:`ResumableEntry` — an explicit step machine whose live state is
  a serializable register dict.  Between steps the thread can be
  preempted (AEX), its context parked in an SSA frame, checkpointed,
  migrated, and resumed on another machine.  This is the shape that makes
  mid-execution migration (and the §IV-A consistency attack window)
  expressible.

Because enclave code must be byte-measurable (MRENCLAVE) but our "code" is
Python, every program registers under a ``code_id`` in a process-global
registry — the model's analogue of the enclave binary being available on
both machines ("the target machine creates and initializes a virgin
enclave using the same image", §III Step-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdk.runtime import EnclaveRuntime


class ProgramError(ReproError):
    """Bad program structure or a missing registry entry."""


@dataclass(frozen=True)
class AtomicEntry:
    """An ecall that runs to completion in one step."""

    fn: Callable[["EnclaveRuntime", Any], Any]
    #: Modelled execution cost; ``cost_fn(args)`` overrides when provided.
    cost_ns: int = 5_000
    cost_fn: Callable[[Any], int] | None = None

    def cost_for(self, args: Any) -> int:
        return self.cost_fn(args) if self.cost_fn is not None else self.cost_ns


@dataclass(frozen=True)
class ResumableEntry:
    """An ecall expressed as an interruptible step machine.

    ``prepare(rt, args)`` returns the initial register dict (canonical
    values only — it must survive :mod:`repro.serde`).  Each step mutates
    the registers and enclave memory; after the last step the entry's
    result is ``regs.get("result")``.
    """

    prepare: Callable[["EnclaveRuntime", Any], dict[str, Any]]
    steps: tuple[Callable[["EnclaveRuntime", dict[str, Any]], None], ...]
    step_cost_ns: int = 5_000


@dataclass
class EnclaveProgram:
    """A named, versioned set of enclave entry points."""

    code_id: str
    entries: dict[str, AtomicEntry | ResumableEntry] = field(default_factory=dict)

    def entry(self, name: str) -> AtomicEntry | ResumableEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise ProgramError(f"program {self.code_id!r} has no entry {name!r}") from None

    def add_entry(self, name: str, entry: AtomicEntry | ResumableEntry) -> "EnclaveProgram":
        if name in self.entries:
            raise ProgramError(f"duplicate entry {name!r}")
        self.entries[name] = entry
        return self


def counter_program(code_id: str) -> EnclaveProgram:
    """The one-entry counter enclave: ``incr`` adds ``args`` (default 1)
    to global ``n`` and returns it.

    The demos, the canonical telemetry run and every fleet migration
    build it, each under its own ``code_id``; entry names are measured
    into MRENCLAVE, so this entry set is part of their figures."""
    program = EnclaveProgram(code_id)
    program.add_entry(
        "incr",
        AtomicEntry(
            lambda rt, args: (
                rt.store_global("n", rt.load_global("n") + int(1 if args is None else args))
                or rt.load_global("n")
            )
        ),
    )
    return program


# ---------------------------------------------------------------------------
# Program registry — the model's "binary distribution channel".
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, EnclaveProgram] = {}


def register_program(program: EnclaveProgram) -> EnclaveProgram:
    """Publish a program so any machine can instantiate its image.

    Re-registering the same ``code_id`` must provide an identical entry
    set (same "binary"); anything else is a build error.
    """
    existing = _REGISTRY.get(program.code_id)
    if existing is not None and set(existing.entries) != set(program.entries):
        raise ProgramError(f"conflicting registration for code id {program.code_id!r}")
    _REGISTRY[program.code_id] = program
    return program


def lookup_program(code_id: str) -> EnclaveProgram:
    try:
        return _REGISTRY[code_id]
    except KeyError:
        raise ProgramError(f"no registered program with code id {code_id!r}") from None
