"""Write-ahead-log conventions shared by every migration party.

Journals are named by *role*, not by object identity, so a party that
crashes and is rebuilt finds its own log again:

* ``orchestrator/<image>`` — the untrusted migration driver;
* ``enclave/source/<image>`` / ``enclave/target/<image>`` — the two
  enclave instances (records are appended from *inside* the enclave;
  secret payloads are sealed under the enclave's EGETKEY sealing key
  before they touch the log);
* ``enclave/target/agent`` — the §VI-D agent enclave's escrow log.

Record kinds are listed here so the recovery logic and the tests agree
on the vocabulary.  The orchestrator journals the protocol's *artifacts*
(sealed checkpoint envelope, sealed K_migrate blob — both ciphertext an
adversary already sees on the wire; the envelope by the digest of its
store blob); the enclaves journal their *state transitions*
(checkpointed, channel open, key released, key installed, live), which
is what makes "a SPENT source recovers as SPENT" decidable after every
volatile bit is gone.
"""

from __future__ import annotations

# Party names (addressable by record-granularity crash faults).
PARTY_SOURCE = "source"
PARTY_TARGET = "target"
PARTY_ORCHESTRATOR = "orchestrator"
PARTY_AGENT = "agent"

MIGRATION_PARTIES = (PARTY_SOURCE, PARTY_TARGET, PARTY_ORCHESTRATOR, PARTY_AGENT)

# Orchestrator record kinds.  Each step of the protocol table
# (repro.migration.protocol.STEPS) names the kind that proves it done;
# the rest carry the artifacts recovery needs, or the run's end.
WAL_BEGIN = "begin"
WAL_CHECKPOINT = "checkpoint"        # payload: the checkpoint's sequence
WAL_TARGET_BUILT = "target-built"
WAL_CHANNEL = "channel"
WAL_TRANSFERRED = "transferred"      # payload: blob digest of the delivered envelope
WAL_STORAGE = "storage"              # payload: the channel-sealed storage handoff blob
WAL_STORAGE_DELIVERED = "storage-delivered"
WAL_RELEASE = "release"              # payload: the sealed K_migrate blob
WAL_DELIVERED = "delivered"
WAL_RESTORED = "restored"            # payload: the CSSA replay plan
WAL_DONE = "done"
WAL_ABORT = "abort"
WAL_CANCEL = "cancel"

# Enclave-side record kinds (appended from in-enclave control code).
REC_CHECKPOINT = "checkpoint"        # sealed: K_migrate; clear: envelope blob digest + sequence
REC_CHANNEL_OPEN = "channel-open"
REC_CHANNEL = "channel"
REC_STORAGE_EXPORT = "storage-export"    # source: storage left under the session key
REC_STORAGE_IMPORT = "storage-import"    # target: sealed re-bound storage table
REC_RELEASED = "released"            # the instant the instance is SPENT
REC_CANCELLED = "cancelled"
REC_KEY_INSTALLED = "key-installed"  # sealed: the received K_migrate
REC_LIVE = "live"
REC_ESCROW = "escrow"                # agent: sealed escrow-table entry
REC_ESCROW_RELEASE = "escrow-release"

AGENT_JOURNAL = "enclave/target/agent"


def orchestrator_journal_name(image_name: str, epoch: int = 0) -> str:
    """Epoch 0 keeps the legacy name; N-hop chains (where one image name
    migrates through the same pair of hosts repeatedly) stamp each hop's
    journals with the hop number so one hop's terminal records ("done",
    "released") can never masquerade as another hop's."""
    if epoch:
        return f"orchestrator/{image_name}@{epoch}"
    return f"orchestrator/{image_name}"


def enclave_journal_name(machine_name: str, image_name: str, epoch: int = 0) -> str:
    if epoch:
        return f"enclave/{machine_name}/{image_name}@{epoch}"
    return f"enclave/{machine_name}/{image_name}"


def storage_namespace(machine_name: str, image_name: str) -> str:
    """The sealed-storage namespace for one enclave instance on one host.

    The namespace holds a single sealed table blob (rewritten whole on
    every put) guarded by three hardware monotonic counters, named by
    suffix below: the committed table *version*, the *handoff* sequence
    last imported into the namespace, and the *retired* sequence at which
    the namespace was handed off to another host.
    """
    return f"storage/{machine_name}/{image_name}"


def storage_handoff_counter(namespace: str) -> str:
    return f"{namespace}/handoff"


def storage_retired_counter(namespace: str) -> str:
    return f"{namespace}/retired"


def storage_digests(store) -> dict[str, dict]:
    """Operator-facing summary of every sealed-storage namespace.

    Maps namespace → sha256 of the sealed table blob plus the three
    guarding counters.  The digest is over ciphertext the operator can
    read anyway; the CLI prints it so two hosts' disks can be compared
    (and a rollback attempt shown) without unsealing anything.
    """
    import hashlib

    digests: dict[str, dict] = {}
    for name in store.names():
        if not name.startswith("storage/"):
            continue
        digests[name] = {
            "sha256": hashlib.sha256(bytes(store.log(name))).hexdigest()[:16],
            "version": store.counter(name),
            "handoff": store.counter(storage_handoff_counter(name)),
            "retired": store.counter(storage_retired_counter(name)),
        }
    return digests
