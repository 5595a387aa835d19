"""The agent enclave: hiding attestation latency (§VI-D).

"The application developer needs to provide another enclave called the
agent enclave ... During a migration (or even before a migration), the
source control thread first remotely attests the agent enclave on the
target machine and then transfers the K_migrate to it in advance.  Hence,
when the VM is resumed on the target machine, all its enclaves can get
their migration keys from agent enclaves through local attestation."

The agent is an ordinary SDK enclave whose entries manage an escrow
table: each record is keyed by the *measurement* of the enclave it was
escrowed for, and is released exactly once, only to a locally attested
enclave with that measurement (preserving P-5, single instance).
"""

from __future__ import annotations

from repro.crypto.authenc import seal_value
from repro.crypto.dh import dh_check_peer, dh_private, dh_public, dh_session_key
from repro.crypto.keys import SymmetricKey
from repro.durability.wal import PARTY_AGENT
from repro.errors import AttestationError, ChannelError, MigrationError
from repro.migration.orchestrator import RetryPolicy
from repro.sdk import control
from repro.sdk.builder import BuiltImage, SdkBuilder
from repro.sdk.control import _bind_report_data, open_from_boot
from repro.sdk.host import HostApplication
from repro.sdk.image import OBJ_BOOT
from repro.sdk.program import EnclaveProgram
from repro.sdk.runtime import EnclaveRuntime
from repro.serde import pack
from repro.sgx.instructions import verify_report
from repro.sgx.structures import Report

OBJ_ESCROW = "escrow_table"


def build_agent_image(builder: SdkBuilder, name: str = "agent") -> BuiltImage:
    """Build the developer-provided agent enclave image."""
    program = EnclaveProgram(f"repro/agent-enclave-v1/{name}")
    return builder.build(
        name,
        program,
        n_workers=1,
        heap_pages=2,
        data_objects={OBJ_ESCROW: 2 * 4096},
    )


# ---------------------------------------------------------------------------
# In-enclave agent logic (runs on the agent's control TCS)
# ---------------------------------------------------------------------------

def agent_escrow_request(rt: EnclaveRuntime, qe) -> tuple:
    """Fresh DH half + quote, for the remote source to attest."""
    from repro.sdk.control import owner_key_request  # same shape, new purpose

    return owner_key_request(rt, qe, "agent-escrow")


def agent_store_escrow(
    rt: EnclaveRuntime, source_dh_public: int, sealed: bytes
) -> tuple[str, int, int]:
    """Accept an escrowed K_migrate from a remotely attested source.

    Returns ``(key_id, table_size, unreleased)`` so the untrusted service
    wrapper can report table growth to the invariant monitor — the table
    must never hold more entries than distinct measurements escrowed.
    """
    payload = open_from_boot(
        rt,
        source_dh_public,
        sealed,
        b"agent-escrow",
        ChannelError("no escrow exchange in progress"),
    )
    table = rt.load_obj(OBJ_ESCROW, default={}) or {}
    key_id = payload["target_mr"].hex()
    if key_id in table and not table[key_id]["released"]:
        raise MigrationError("an unreleased escrow already exists for this measurement")
    table[key_id] = {
        "kmigrate": payload["kmigrate"],
        "sequence": payload["sequence"],
        # Sealed storage rides the escrow (the agent path has no direct
        # source↔target session); released alongside the key, exactly once.
        "storage": payload.get("storage"),
        "released": False,
    }
    rt.store_obj(OBJ_ESCROW, table)
    rt.delete_obj(OBJ_BOOT)
    # Durable escrow: the entry is sealed under the *agent's* EGETKEY key
    # so a rebuilt agent (same measurement, same CPU) can reload it.
    rt.journal_record(
        "escrow",
        {"key_id": key_id},
        secret={
            "key_id": key_id,
            "kmigrate": payload["kmigrate"],
            "sequence": payload["sequence"],
            "storage": payload.get("storage"),
        },
    )
    unreleased = sum(1 for entry in table.values() if not entry["released"])
    return key_id, len(table), unreleased


def agent_recover_escrow(rt: EnclaveRuntime, sealed: bytes, released: bool) -> None:
    """Crash recovery: reload one journaled escrow entry.

    ``sealed`` is a journal-sealed ``escrow`` record payload — only a
    same-measurement agent on this CPU can open it.  ``released`` comes
    from replaying the validated journal (an ``escrow-release`` record
    after the ``escrow`` record): dropping that record to get a second
    release would shorten the journal below its monotonic counter, which
    replay refuses as a rollback.
    """
    payload = rt.journal_unseal(sealed)
    table = rt.load_obj(OBJ_ESCROW, default={}) or {}
    table[payload["key_id"]] = {
        "kmigrate": payload["kmigrate"],
        "sequence": payload["sequence"],
        "storage": payload.get("storage"),
        "released": bool(released),
    }
    rt.store_obj(OBJ_ESCROW, table)


def agent_release_key(
    rt: EnclaveRuntime, report: Report, requester_dh_public: int
) -> tuple[int, bytes]:
    """Release an escrowed key to a *locally attested* enclave, once.

    The report must be addressed to this agent (verified with the agent's
    own report key via EGETKEY — only same-CPU reports pass), must bind
    the requester's DH half, and its MRENCLAVE selects the escrow record.
    """
    if not verify_report(rt.session, report):
        raise AttestationError("local attestation failed: report not for this agent/CPU")
    if report.report_data != _bind_report_data("agent-release", requester_dh_public):
        raise AttestationError("report does not bind the offered DH value")
    # Refuse a degenerate DH half now: past the release commit below, a
    # refusal would burn the escrow.
    dh_check_peer(requester_dh_public)
    table = rt.load_obj(OBJ_ESCROW, default={}) or {}
    key_id = report.mrenclave.hex()
    record = table.get(key_id)
    if record is None:
        raise MigrationError("no escrowed key for this enclave measurement")
    if record["released"]:
        raise MigrationError("escrowed key was already released (single instance)")
    record["released"] = True
    rt.store_obj(OBJ_ESCROW, table)
    # Commit the release *before* the sealed key leaves the enclave: a
    # crash after this point recovers the entry as released, so the key
    # can never be handed out twice across a crash.
    rt.journal_record("escrow-release", {"key_id": key_id})

    private = dh_private(rt.rdrand)
    agent_dh_public = dh_public(private)
    session_key = SymmetricKey(dh_session_key(requester_dh_public, private), "agent-release")
    sealed = seal_value(
        session_key,
        {
            "kmigrate": record["kmigrate"],
            "sequence": record["sequence"],
            "storage": record.get("storage"),
        },
        rt.random_bytes(16),
        b"agent-release",
    )
    return agent_dh_public, sealed


# ---------------------------------------------------------------------------
# Host-side wiring
# ---------------------------------------------------------------------------

class AgentService:
    """Host wrapper around one agent enclave on the target machine."""

    def __init__(
        self, testbed, built_agent: BuiltImage, retry: RetryPolicy | None = None
    ) -> None:
        self.tb = testbed
        self.built = built_agent
        #: Same degraded-mode knobs as the orchestrator; the default (one
        #: attempt) keeps the seed behaviour of surfacing the first fault.
        self.retry = retry or RetryPolicy()
        self.app = HostApplication(
            testbed.target, testbed.target_os, built_agent.image, workers=[], name="agent"
        )
        # The agent is its own protocol party: record-granularity crash
        # faults address it as "agent", not as the target machine.
        self.app.library.journal.party = PARTY_AGENT
        self.app.library.launch(owner=None)

    @property
    def mrenclave(self) -> bytes:
        return self.built.image.mrenclave

    def _transfer(self, label: str, payload: bytes, wan: bool = False) -> bytes:
        """Retry a transfer through transient faults (escrow messages are
        ciphertext under the exchange's session key: resending is safe)."""
        return self.retry.deliver(
            self.tb,
            label,
            payload,
            lambda _round: self.tb.trace.emit("migration", "agent_resend", label=label),
            wan=wan,
        )

    def escrow_from(self, source_app: HostApplication) -> bytes:
        """Pre-migration: source attests the agent and escrows K_migrate;
        returns the sealed escrow (the source is SPENT from here on)."""
        tb = self.tb
        with tb.trace.tracer.span(
            "agent.escrow", party="agent", image=source_app.image.name
        ):
            quote, agent_pub = self.app.library.control_call(
                agent_escrow_request, tb.target.quoting_enclave
            )
            self._transfer("agent-escrow-request", pack({"dh": agent_pub}))
            self._transfer("ias-quote", quote.signed_body(), wan=True)
            avr = tb.ias.verify_quote(quote)
            source_pub, sealed = source_app.library.control_call(
                control.source_escrow_to_agent, avr, agent_pub
            )
            delivered = self._transfer("agent-escrow", sealed)
            key_id, table_size, unreleased = self.app.library.control_call(
                agent_store_escrow, source_pub, delivered
            )
            tb.trace.emit(
                "agent",
                "escrow",
                key_id=key_id,
                table_size=table_size,
                unreleased=unreleased,
            )
        tb.trace.metrics.counter("agent.escrows_total").inc()
        return sealed

    def release_to(self, target_app: HostApplication) -> None:
        """Post-resume: local attestation hands the key to the enclave."""
        with self.tb.trace.tracer.span(
            "agent.release", party="agent", image=target_app.image.name
        ):
            report, requester_pub = target_app.library.control_call(
                control.target_request_key_from_agent, self.mrenclave
            )
            agent_pub, sealed = self.app.library.control_call(
                agent_release_key, report, requester_pub
            )
            self.tb.trace.emit(
                "agent", "release", key_id=target_app.image.mrenclave.hex()
            )
            target_app.library.control_call(
                control.target_install_agent_key, agent_pub, sealed
            )
        self.tb.trace.metrics.counter("agent.releases_total").inc()

    def recover(self) -> int:
        """Rebuild a crashed agent from its journal; returns entries reloaded.

        The journal is validated first (a rolled-back log raises and stops
        recovery); every sealed ``escrow`` record is reinstalled with its
        release status replayed from the subsequent ``escrow-release``
        records, so an already-released key stays released.
        """
        library = self.app.library
        records = library.journal.records()  # raises on corruption / rollback
        if library.enclave_id is None:
            library.launch(owner=None)
        released: set[str] = set()
        entries: dict[str, bytes] = {}
        for record in records:
            if record.kind == "escrow":
                key_id = record.payload["key_id"]
                entries[key_id] = record.payload["sealed"]
                released.discard(key_id)  # a re-escrow supersedes history
            elif record.kind == "escrow-release":
                released.add(record.payload["key_id"])
        for key_id, sealed in entries.items():
            library.control_call(
                agent_recover_escrow, sealed, key_id in released
            )
        return len(entries)
