"""Exception hierarchy for the whole reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch at the granularity they care about (a single instruction fault, a
protocol violation, or anything from this library at all).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# SGX hardware model faults
# ---------------------------------------------------------------------------

class SgxError(ReproError):
    """Base class for faults raised by the simulated SGX hardware."""


class SgxAccessFault(SgxError):
    """Software touched memory the SGX access rules forbid.

    Raised when non-enclave code reads or writes an EPC page, when one
    enclave touches another enclave's pages, or when software reads a
    hardware-only structure field (e.g. ``TCS.cssa``).
    """


class SgxInstructionFault(SgxError):
    """An SGX instruction was executed with illegal operands or state."""


class EnclavePageFault(SgxError):
    """An enclave touched one of its pages that is currently evicted.

    The (untrusted) OS handles this by loading the page back with ELDB,
    after which the access is retried — the control thread relies on this
    when it scans enclave memory during checkpointing (§IV-B).
    """

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"enclave page fault at 0x{vaddr:x}")
        self.vaddr = vaddr


class SgxMacMismatch(SgxError):
    """An evicted page or report failed its cryptographic MAC check.

    This is the hardware fact the paper is built on: a page evicted with
    EWB on one CPU cannot be loaded with ELDB on another CPU because the
    page-encryption key never leaves the processor.
    """


class SgxVersionMismatch(SgxError):
    """An ELDB/ELDU found a stale version number (anti-replay check)."""


class SgxEpcExhausted(SgxError):
    """No free EPC page is available and eviction was not possible."""


# ---------------------------------------------------------------------------
# Virtualization stack
# ---------------------------------------------------------------------------

class HypervisorError(ReproError):
    """Base class for hypervisor (KVM model) errors."""


class EptViolation(HypervisorError):
    """A guest access missed in the extended page tables."""


class GuestOsError(ReproError):
    """Base class for guest-OS model errors."""


class NoSuchEnclave(GuestOsError):
    """An enclave id was used after destruction or was never created."""


# ---------------------------------------------------------------------------
# Network and injected infrastructure faults
# ---------------------------------------------------------------------------

class NetworkFault(ReproError):
    """Base class for transport-level failures on the migration link.

    These model *infrastructure* misbehaviour (lost packets, a severed
    link), not adversarial tampering: tampering is silent and must be
    caught cryptographically, while a fault is loud — the sender observes
    a missing acknowledgement and may retry.
    """


class LinkTimeout(NetworkFault):
    """A transfer was never acknowledged (dropped message or dead peer)."""


class LinkPartitioned(NetworkFault):
    """The migration link is currently down; transfers cannot start."""

    def __init__(self, message: str, heals_at_ns: int = 0) -> None:
        super().__init__(message)
        #: Virtual time at which the partition is scheduled to heal
        #: (0 when unknown); retry loops use it only for tracing.
        self.heals_at_ns = heals_at_ns


class MachineCrash(ReproError):
    """An injected endpoint crash: the machine's volatile state is gone.

    Enclave memory never survives a machine crash (EPC keys are per-boot),
    so a crashed endpoint loses every enclave it hosted.
    """

    def __init__(self, side: str, step: str) -> None:
        super().__init__(f"{side} machine crashed at protocol step {step!r}")
        self.side = side
        self.step = step


class PartyCrash(ReproError):
    """A migration party crashed at a journal-record boundary.

    Unlike :class:`MachineCrash` (which the orchestrator's retry loop
    heals in place), a party crash terminates the whole protocol driver:
    the run stops where it stands and only
    :class:`repro.durability.recovery.MigrationRecovery` — reading the
    write-ahead journals — may continue or finalize the migration.
    """

    def __init__(self, party: str, record: int, journal: str = "") -> None:
        super().__init__(
            f"party {party!r} crashed after committing journal record #{record}"
            + (f" of {journal!r}" if journal else "")
        )
        self.party = party
        self.record = record
        self.journal = journal


# ---------------------------------------------------------------------------
# Durability (write-ahead journal) and runtime invariants
# ---------------------------------------------------------------------------

class DurabilityError(ReproError):
    """Base class for write-ahead-journal failures."""


class JournalCorrupt(DurabilityError):
    """A journal frame failed its CRC or the record stream is malformed."""


class JournalRolledBack(DurabilityError):
    """The journal is older than the hardware monotonic counter says it
    must be: someone truncated it or substituted an earlier copy.  A
    rolled-back journal is *refused*, never best-effort recovered — the
    counter exists precisely so stale state cannot be replayed
    (the Alder et al. rollback defense)."""


class RecoveryError(DurabilityError):
    """Crash recovery could not reconstruct a safe state from the journal."""


class SealedStorageError(DurabilityError):
    """Base class for migratable sealed-storage refusals.

    The storage namespace carries a service's persistent state across
    migrations; anything suspicious about it is *refused* with a subclass
    of this error, never repaired silently.
    """


class StorageRolledBack(SealedStorageError):
    """A sealed-storage blob is older than its monotonic version counter.

    Someone restored a stale copy of the sealed table (or replayed a
    pre-migration one on the source after the namespace moved): the
    durable version counter only moves forward, so the mismatch is
    detectable and the open is refused (CTR / Alder et al. defense,
    extended across the migration boundary).
    """


class StorageRetired(SealedStorageError):
    """The sealed-storage namespace was handed off to another host.

    Set at the migration's point of no return: a resumed or rebuilt
    source that tries to touch the namespace afterwards would fork the
    counter lineage, so the access is refused outright.
    """


class InvariantViolation(ReproError):
    """The live invariant monitor observed a broken safety property.

    In a correct run this never fires; it firing *is* the bug report —
    more than one live instance of a migrated lineage, execution after
    self-destroy, a double escrow release, or a software-readable CSSA.
    """


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for crypto-substrate errors."""


class IntegrityError(CryptoError):
    """A MAC or digest check failed; the payload must be discarded."""


class SignatureError(CryptoError):
    """A public-key signature failed verification."""


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------

class AttestationError(ReproError):
    """Local or remote attestation failed."""


class QuoteRejected(AttestationError):
    """The attestation service rejected a quote."""


# ---------------------------------------------------------------------------
# Migration protocol
# ---------------------------------------------------------------------------

class MigrationError(ReproError):
    """Base class for migration-protocol failures."""


class MigrationAborted(MigrationError):
    """The migration was cancelled before the point of no return."""


class ChannelError(MigrationError):
    """The migration secure channel could not be established or was reused."""


class StepTimeout(MigrationError):
    """A protocol step exceeded its per-step budget (e.g. a wedged
    control thread that never reaches the quiescent point)."""

    def __init__(self, step: str, detail: str = "") -> None:
        super().__init__(f"step {step!r} timed out{': ' + detail if detail else ''}")
        self.step = step


class ChunkError(MigrationError):
    """A checkpoint chunk arrived malformed or failed its frame digest.

    Chunk framing is an untrusted transport detail — a bad chunk is
    retransmitted, never trusted; end-to-end integrity still rests on the
    sealed envelope's MAC, which only the enclave verifies.
    """


class SelfDestroyed(MigrationError):
    """An operation was attempted on an enclave that has self-destroyed.

    After the source enclave hands the migration key to the (single,
    attested) target, it refuses to ever run again; any ecall raises this.
    """


class ConsistencyViolation(MigrationError):
    """A checkpoint failed its consistency verification.

    In a correct run this never fires; the attack tests assert that a
    *broken* (single-phase) checkpointer produces it while the paper's
    two-phase scheme does not.
    """


class HandoffReplayed(MigrationError):
    """A sealed-storage handoff blob was presented more than once.

    The export is bound to one channel sequence; importing it a second
    time (a replayed `handoff-storage` message, or the same blob fed to
    two targets) would fork the storage lineage and is refused.
    """


class KeyReused(MigrationError):
    """A K_migrate was offered for a second use.

    Each K_migrate has a one-use token: the source's release, escrow or
    cancel moves it once, and one go-live with the key moves it again.
    A journaled copy of the key installed after that would fork or roll
    back the enclave (§V-B: a cancelled migration's checkpoint is
    useless), so the enclave refuses it.
    """


class RestoreError(MigrationError):
    """The target enclave could not be restored from the checkpoint."""


class CssaMismatch(RestoreError):
    """Tracked CSSA disagrees with the checkpoint after restore (step 4)."""
