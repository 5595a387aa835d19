"""The control thread: in-enclave migration logic.

"we introduce control thread, a new thread that runs within each enclave,
to assist migration ... Control threads are totally transparent to enclave
developers as long as the developers use our SDK" (§III).

Everything in this module executes inside an enclave session (it is part
of the enclave's TCB).  The untrusted SGX library merely EENTERs the
control TCS and invokes these functions; none of them ever hands key
material or plaintext state to the outside.

Source-side ops: two-phase checkpoint generation (§IV-B), single secure
channel with mutual authentication (§V-B), K_migrate handoff followed by
self-destroy (§V-B), cancellation.

Target-side ops: channel request, checkpoint restore, CSSA replay
verification (§IV-C / §III step-4), and finish.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterator

from repro import buffers
from repro.crypto.authenc import Envelope, open_value, seal_value, sealing_buffer
from repro.crypto.dh import dh_private, dh_public, dh_session_key
from repro.crypto.hashes import sha256
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import (
    AttestationError,
    ChannelError,
    CssaMismatch,
    HandoffReplayed,
    IntegrityError,
    KeyReused,
    MigrationError,
    ReproError,
    RestoreError,
    SelfDestroyed,
    StorageRolledBack,
)
from repro.migration.checkpoint import (
    EnclaveCheckpoint,
    OpenedCheckpoint,
    TcsState,
    seal_checkpoint_buffer,
)
from repro.sdk.image import (
    FLAG_BUSY,
    FLAG_FREE,
    FLAG_SPIN,
    OBJ_BOOT,
    OBJ_CHANNEL,
    OBJ_IMAGE_PRIVKEY,
    TCS_CSSA_EENTER_OFF,
)
from repro.sdk.runtime import EnclaveRuntime
from repro.serde import pack, unpack
from repro.sgx.attestation import (
    AttestationVerificationReport,
    QuotingEnclave,
    quote_for,
    verify_avr,
)
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, Quote
from repro.sim.costs import CostModel

# Channel states (stored in the control block).
CHANNEL_NONE = 0
CHANNEL_OPEN = 1
CHANNEL_SPENT = 2  # key handed over; the enclave has self-destroyed

# K_migrate's one-use token (a hardware monotonic counter per key): the
# source's release, escrow or cancel moves it 0 -> 1, a target's go-live
# 1 -> 2 and a rebuilt source's go-live 0 -> 1.  A journaled copy of the
# key is sealed under the AAD of the token value its go-live moves to,
# so the record's role costs no payload byte and cannot be swapped.
GO_LIVE_SOURCE = 1
GO_LIVE_TARGET = 2
_KEY_RECORD_AAD = {
    GO_LIVE_SOURCE: b"journal/kmigrate/source",
    GO_LIVE_TARGET: b"journal/kmigrate/target",
}


@dataclass
class CheckpointResult:
    """What the control thread hands back to the (untrusted) library.

    ``wire`` is the envelope's wire form, built once by the seal (the
    envelope's ciphertext is a view into it), and ``blob`` the digest the
    source's journal stored those bytes under: the orchestrator ships
    ``wire`` as it is and can name the bytes it delivered without hashing
    them again.
    """

    envelope: Envelope
    memory_bytes: int
    skipped_pages: int
    sequence: int
    wire: bytes
    blob: str


def _ensure_not_destroyed(rt: EnclaveRuntime) -> None:
    if rt.channel_state() == CHANNEL_SPENT:
        raise SelfDestroyed("this enclave instance handed over its state and will not run")


def _check_key_token(rt: EnclaveRuntime, key: bytes, expected: int) -> None:
    """Refuse a K_migrate whose one-use token is not at ``expected``."""
    token = rt.key_token(key)
    if token != expected:
        raise KeyReused(
            f"K_migrate's one-use token is at {token}, not {expected}: this "
            "key was already released, cancelled or used to go live"
        )


def _bind_report_data(purpose: str, public: int) -> bytes:
    """Bind a DH public value into EREPORT's report_data field.

    Padded to the architectural 64-byte report_data width so comparisons
    against REPORT/QUOTE fields are exact.
    """
    return sha256(purpose.encode() + public.to_bytes(256, "big")).ljust(64, b"\x00")


#: Enclave-private state (``EnclaveSession.private``): the boot slot's DH
#: private value with its public half, so that completing the channel
#: does not redo the modexp.  Enclave memory does not change.
_BOOT_DH = "boot-dh"


def _fresh_dh_public(rt: EnclaveRuntime) -> int:
    """Draw a DH private value into the boot slot; return its public half."""
    rt.fresh_dh_private_store(OBJ_BOOT)
    private = rt.load_obj(OBJ_BOOT)["dh_private"]
    public = dh_public(private)
    rt.session.private[_BOOT_DH] = (private, public)
    return public


def open_from_boot(
    rt: EnclaveRuntime, peer_public: int, sealed: bytes, aad: bytes, missing: ReproError
):
    """Open a message sealed under the DH key of the boot slot's exchange.

    The key is agreed between the boot slot's private value (drawn by
    :func:`_fresh_dh_public`) and the peer's ``peer_public``.  Raises
    ``missing`` when no exchange is in progress.  The boot slot stays:
    the caller clears it once the message's contents are in place.
    """
    boot = rt.load_obj(OBJ_BOOT)
    if boot is None:
        raise missing
    key = SymmetricKey(dh_session_key(peer_public, boot["dh_private"]), "boot-session")
    return open_value(key, sealed, aad)


def _install_key(rt: EnclaveRuntime, key: bytes, sequence: int | None, go_live: int) -> None:
    """Put a received K_migrate into the channel object.

    ``sequence`` is the checkpoint sequence the key opens (``None``: no
    constraint), and ``go_live`` the one-use token step the instance's
    go-live takes (0, for an owner-keyed resume, leaves the token alone).
    """
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    channel["kmigrate"] = key
    if sequence is not None:
        channel["expected_sequence"] = sequence
    rt.store_obj(OBJ_CHANNEL, channel)
    if go_live:
        rt.set_go_live_token(go_live)


# ---------------------------------------------------------------------------
# Two-phase checkpoint generation (§IV-B)
# ---------------------------------------------------------------------------

#: Cost of one poll of the workers' flags while waiting for quiescence.
QUIESCE_POLL_NS = 600
#: Pages dumped (and charged) per engine step of phase two.
DUMP_PAGES_PER_STEP = 16


def generate_checkpoint(
    rt: EnclaveRuntime,
    costs: CostModel,
    algorithm: str = "rc4",
    use_installed_key: bool = False,
    sgx_v2: bool = False,
) -> Iterator[int]:
    """Two-phase checkpointing, as a cost-yielding generator.

    Phase one sets the global flag and waits for every worker to reach a
    safe state (free or spin) — *without asking the OS anything*.  Phase
    two dumps all readable memory, derives the per-TCS tracked CSSA, and
    seals everything under a freshly drawn K_migrate — or, when
    ``use_installed_key`` is set, under the owner-provided K_encrypt that
    an attested :func:`owner_key_install` placed in enclave memory (the
    legal checkpoint/resume path of §V-C).

    Returns a :class:`CheckpointResult` via ``StopIteration.value``.
    """
    _ensure_not_destroyed(rt)
    image = rt.image
    worker_indices = [t.index for t in image.tcs_templates if t.role == "worker"]
    control_index = image.control_tcs.index

    # Phase one: raise the flag, then wait for the quiescent point.
    rt.set_global_flag(1)
    yield 500
    while not rt.quiescent(worker_indices):
        yield QUIESCE_POLL_NS

    # Phase two: the enclave is quiescent; dump from inside.
    if use_installed_key:
        installed = rt.load_obj(OBJ_CHANNEL, default={}) or {}
        if "kmigrate" not in installed:
            raise MigrationError("no owner key installed for checkpointing")
        kmigrate = SymmetricKey(installed["kmigrate"], "kencrypt")
    else:
        kmigrate = SymmetricKey(rt.random_bytes(32), "kmigrate")
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    sequence = int(channel.get("sequence", 0)) + 1
    channel.update({"kmigrate": kmigrate.material, "ckpt_done": True, "sequence": sequence})
    rt.store_obj(OBJ_CHANNEL, channel)
    yield 500

    # The dump: one buffer of page rows, mapped on its own, filled a
    # batch at a time; the checkpoint's pages are views of its rows.
    readable = image.readable_reg_vaddrs()
    dump = buffers.fresh(len(readable) * PAGE_SIZE).reshape(-1, PAGE_SIZE)
    for start in range(0, len(readable), DUMP_PAGES_PER_STEP):
        batch = readable[start : start + DUMP_PAGES_PER_STEP]
        rt.read_pages(batch, dump[start : start + len(batch)])
        yield costs.memcpy_ns(len(batch) * PAGE_SIZE)
    rows = memoryview(dump.reshape(-1)).toreadonly()
    pages: dict[int, bytes | memoryview] = {
        vaddr: rows[at * PAGE_SIZE : (at + 1) * PAGE_SIZE] for at, vaddr in enumerate(readable)
    }
    if sgx_v2:
        # §IV-B: "this problem can be fixed in SGX v2 which supports
        # dynamically changing page permissions" — EMODPE the W+X pages
        # readable for the copy, then restore their permissions.
        from repro.sgx.sgx2 import dump_unreadable_page_v2

        unreadable = [
            p.vaddr
            for p in image.pages
            if p.sec_info.page_type is PageType.REG and p.vaddr not in pages
        ]
        for vaddr in unreadable:
            pages[vaddr] = dump_unreadable_page_v2(rt.session, vaddr)
            yield costs.memcpy_ns(PAGE_SIZE) + 4 * costs.eextend_page_ns

    tcs_states = []
    for template in image.tcs_templates:
        if template.index == control_index:
            tcs_states.append(TcsState(template.index, cssa=0, local_flag=FLAG_FREE))
            continue
        flag = rt.local_flag(template.index)
        cssa = rt.cssa_eenter(template.index) if flag == FLAG_SPIN else 0
        tcs_states.append(TcsState(template.index, cssa=cssa, local_flag=flag))

    skipped = [
        p.vaddr
        for p in image.pages
        if p.vaddr not in pages and p.tcs_index is None
    ]
    checkpoint = EnclaveCheckpoint(
        image_name=image.name,
        code_id=image.code_id,
        mrenclave=image.mrenclave,
        sequence=sequence,
        pages=pages,
        tcs_states=tcs_states,
        skipped_pages=skipped,
        # Bind the storage snapshot to this checkpoint: the target will
        # refuse to go live on a namespace older than this (0 when the
        # enclave keeps no persistent storage).
        storage_version=rt.storage_version(),
    )
    # Charge the hash+encrypt pipeline in slices so concurrent control
    # threads overlap on the VCPUs instead of serializing one big step.
    body_len = checkpoint.memory_bytes
    crypto_ns = costs.hash_ns(body_len) + costs.cipher_ns(algorithm, body_len)
    slices = 10
    for _ in range(slices):
        yield crypto_ns // slices
    # Buffer ownership: the checkpoint's bytes are copied once, into the
    # sealing buffer, and the dump goes back to the host before that
    # buffer is encrypted in place and joined into the wire.
    inner = sealing_buffer(checkpoint.parts())
    del checkpoint, pages, rows, dump
    envelope = seal_checkpoint_buffer(inner, kmigrate, rt.random_bytes(16), algorithm)
    del inner
    # Durability: the sealed envelope is ciphertext the host sees anyway,
    # stored once as a blob and named in the record by its digest;
    # K_migrate goes into the record sealed under this enclave's own
    # EGETKEY key, so only a same-measurement rebuild can ever read it.
    # The fsync blocks this control thread, not the machine: defer the
    # commit cost into a yield so concurrent checkpointers overlap their
    # journal waits instead of serializing on a stop-the-world charge.
    wire = envelope.to_bytes()
    blob = rt.journal_blob(wire)
    commit_wait_ns = rt.journal_record(
        "checkpoint",
        {"sequence": sequence, "envelope": blob},
        secret={"kmigrate": kmigrate.material, "sequence": sequence},
        defer_charge=True,
        aad=_KEY_RECORD_AAD[GO_LIVE_SOURCE],
    )
    if commit_wait_ns:
        yield commit_wait_ns
    return CheckpointResult(
        envelope=envelope,
        memory_bytes=body_len,
        skipped_pages=len(skipped),
        sequence=sequence,
        wire=wire,
        blob=blob,
    )


# ---------------------------------------------------------------------------
# Boot-time provisioning (§II-A attestation, §V-B image keys)
# ---------------------------------------------------------------------------

def provision_request(rt: EnclaveRuntime, qe: QuotingEnclave) -> tuple[Quote, int]:
    """Start owner provisioning: fresh DH half + quote binding it."""
    public = _fresh_dh_public(rt)
    return quote_for(rt.session, qe, _bind_report_data("provision", public)), public


def provision_complete(rt: EnclaveRuntime, owner_dh_public: int, sealed: bytes) -> None:
    """Finish provisioning: derive the session key, store the secrets."""
    payload = open_from_boot(
        rt,
        owner_dh_public,
        sealed,
        b"provision",
        AttestationError("no provisioning in progress"),
    )
    rt.store_obj(
        OBJ_IMAGE_PRIVKEY,
        {
            "n": payload["priv_n"],
            "e": payload["priv_e"],
            "d": payload["priv_d"],
            "ias_n": payload["ias_n"],
            "ias_e": payload["ias_e"],
            "agent_mr": payload.get("agent_mr"),
        },
    )
    rt.delete_obj(OBJ_BOOT)
    rt.set_attested()


# ---------------------------------------------------------------------------
# The migration secure channel (§V-B)
# ---------------------------------------------------------------------------

def owner_key_request(rt: EnclaveRuntime, qe: QuotingEnclave, purpose: str) -> tuple[Quote, int]:
    """Generic attested key request to the enclave owner (§V-C).

    Used for snapshot (get K_encrypt before checkpointing) and resume
    (get K_encrypt back into a fresh enclave).  The owner logs every
    grant, which is what makes rollbacks auditable.
    """
    public = _fresh_dh_public(rt)
    return quote_for(rt.session, qe, _bind_report_data(purpose, public)), public


def owner_key_install(
    rt: EnclaveRuntime, owner_dh_public: int, sealed: bytes, purpose: str
) -> None:
    """Install an owner-granted key (K_encrypt) into enclave memory."""
    payload = open_from_boot(
        rt,
        owner_dh_public,
        sealed,
        purpose.encode(),
        ChannelError("no owner key request in progress"),
    )
    _install_key(rt, payload["key"], payload.get("sequence"), go_live=0)
    rt.delete_obj(OBJ_BOOT)


def target_channel_request(rt: EnclaveRuntime, qe: QuotingEnclave) -> tuple[Quote, int]:
    """Target side: fresh DH half + quote, sent to the source enclave."""
    public = _fresh_dh_public(rt)
    return quote_for(rt.session, qe, _bind_report_data("migrate-target", public)), public


def source_open_channel(
    rt: EnclaveRuntime,
    avr: AttestationVerificationReport,
    target_dh_public: int,
) -> tuple[int, bytes]:
    """Source side: attest the target, then answer its DH half.

    The source acts as the enclave owner would at launch time (§III
    Step-2): it checks the IAS-signed report, requires the *same
    measurement as itself* (same image), and verifies the report binds
    the DH value.  It will do this for exactly one target ("build only
    one secure channel even if receiving many exchange requests").
    """
    _ensure_not_destroyed(rt)
    if not rt.attested():
        raise ChannelError("source enclave was never provisioned by its owner")
    if rt.channel_state() != CHANNEL_NONE:
        raise ChannelError("migration channel already established: refusing a second target")
    secrets = rt.load_obj(OBJ_IMAGE_PRIVKEY)
    ias_key = RsaPublicKey(secrets["ias_n"], secrets["ias_e"])
    verify_avr(avr, ias_key, expected_mrenclave=rt.image.mrenclave)
    if avr.report_data != _bind_report_data("migrate-target", target_dh_public):
        raise AttestationError("target quote does not bind the offered DH value")

    private = dh_private(rt.rdrand)
    source_dh_public = dh_public(private)
    session_key = dh_session_key(target_dh_public, private)

    # Authenticate the source to the target with the image private key
    # (§V-B: "All the messages from the source enclave to the target
    # enclave are encrypted by this private key").
    image_key = RsaPrivateKey(secrets["n"], secrets["e"], secrets["d"])
    transcript = pack(
        {"source_pub": source_dh_public, "target_pub": target_dh_public, "purpose": "migrate"}
    )
    signature = image_key.sign(transcript)

    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    channel.update({"session_key": session_key, "role": "source"})
    rt.store_obj(OBJ_CHANNEL, channel)
    rt.set_channel_state(CHANNEL_OPEN)
    rt.journal_record("channel-open")
    return source_dh_public, signature


def target_complete_channel(
    rt: EnclaveRuntime, source_dh_public: int, signature: bytes
) -> None:
    """Target side: verify the source's signature with the embedded key.

    "the target enclave can get the plaintext private key from the source
    enclave ... the target control thread can verify the received message
    with the public key" — the public key sits in a *measured* page of
    the virgin image, so the untrusted stack cannot substitute it.
    """
    boot = rt.load_obj(OBJ_BOOT)
    if boot is None:
        raise ChannelError("no channel request in progress")
    private = boot["dh_private"]
    drawn, target_dh_public = rt.session.private.get(_BOOT_DH, (None, None))
    if drawn != private:
        raise ChannelError("this enclave holds no public half for its channel request")
    key_page = unpack(rt.read(rt.layout.key_page_vaddr, rt.layout.key_page_len))
    image_public = RsaPublicKey(key_page["pub_n"], key_page["pub_e"])
    transcript = pack(
        {"source_pub": source_dh_public, "target_pub": target_dh_public, "purpose": "migrate"}
    )
    image_public.verify(transcript, signature)  # raises SignatureError
    session_key = dh_session_key(source_dh_public, private)
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    channel.update({"session_key": session_key, "role": "target"})
    rt.store_obj(OBJ_CHANNEL, channel)
    rt.set_channel_state(CHANNEL_OPEN)
    rt.delete_obj(OBJ_BOOT)
    del rt.session.private[_BOOT_DH]
    rt.journal_record("channel")


def _session_key(rt: EnclaveRuntime) -> SymmetricKey:
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    if "session_key" not in channel:
        raise ChannelError("no migration channel established")
    return SymmetricKey(channel["session_key"], "migration-session")


# ---------------------------------------------------------------------------
# Sealed-storage & counter handoff (persistent-state migration)
# ---------------------------------------------------------------------------
#
# A long-lived service's sealed storage is bound to its host: the table
# blob is sealed under this CPU's EGETKEY key and its freshness counters
# live in this host's tamper-resistant counter bank.  Neither survives
# the move on its own, so the migration protocol gains a negotiated
# `handoff-storage` step between checkpoint transfer and key release:
# the source re-seals (table, version) under the channel session key with
# the channel sequence bound into the payload, and the target re-binds it
# to its own EGETKEY key and counter bank before K_migrate ever moves.
# The source's namespace is tombstoned at the point of no return, so a
# resumed or rebuilt source can never fork the counter lineage.

def storage_put(rt: EnclaveRuntime, key: str, value) -> int:
    """Service-facing entry: write one persistent entry (control TCS)."""
    _ensure_not_destroyed(rt)
    return rt.storage_put(key, value)


def storage_get(rt: EnclaveRuntime, key: str, default=None):
    """Service-facing entry: read one persistent entry (control TCS)."""
    _ensure_not_destroyed(rt)
    return rt.storage_get(key, default)


def source_export_storage(rt: EnclaveRuntime) -> bytes:
    """Re-seal the sealed-storage namespace for the attested target.

    Runs after the checkpoint is generated (the channel sequence exists)
    and strictly before :func:`source_release_key` — the export itself is
    not the point of no return; a cancelled migration leaves the source's
    namespace untouched and usable.
    """
    _ensure_not_destroyed(rt)
    if rt.channel_state() != CHANNEL_OPEN:
        raise ChannelError("cannot hand off storage without an open channel")
    channel = rt.load_obj(OBJ_CHANNEL)
    if not channel.get("ckpt_done"):
        raise MigrationError("storage handoff runs after checkpoint generation")
    entries, version = rt.storage_table()
    sequence = int(channel["sequence"])
    sealed = seal_value(
        _session_key(rt),
        {"version": version, "entries": entries, "sequence": sequence},
        rt.random_bytes(16),
        b"storage-handoff",
    )
    channel["storage_exported"] = version
    rt.store_obj(OBJ_CHANNEL, channel)
    # Journal the full table as a sealed secret, mirroring the target's
    # storage-import record: either side of a half-handed-off namespace
    # can then be repaired from its own journal after a crash.
    rt.journal_record(
        "storage-export",
        {"sequence": sequence, "version": version},
        secret={"sequence": sequence, "version": version, "entries": entries},
    )
    return sealed


def _import_storage_table(
    rt: EnclaveRuntime, sequence: int, version: int, entries: dict
) -> int:
    """Shared import core: freshness checks, journal intent, re-bind.

    Refusals are typed and durable: a handoff whose channel sequence was
    already imported here raises :class:`HandoffReplayed` (the handoff
    counter only moves forward), and a table older than what this host
    already committed raises :class:`StorageRolledBack`.  The sealed
    import record is journaled *before* the namespace is rewritten, so a
    crash mid-import is repaired from the journal instead of leaving a
    half-bound namespace that local freshness rules would refuse.
    """
    from repro.durability import wal

    ns = rt.storage_namespace()
    store = rt._journal.store
    last_handoff = store.counter(wal.storage_handoff_counter(ns))
    if sequence <= last_handoff:
        raise HandoffReplayed(
            f"storage handoff for sequence {sequence} was already imported into "
            f"{ns!r} (handoff counter is at {last_handoff}): refusing the replay"
        )
    if version < store.counter(ns):
        raise StorageRolledBack(
            f"storage handoff carries version {version} but namespace {ns!r} "
            f"already committed version {store.counter(ns)}: a stale export "
            "is being replayed onto a newer host"
        )
    rt.journal_record(
        "storage-import",
        {"sequence": sequence, "version": version},
        secret={"sequence": sequence, "version": version, "entries": entries},
    )
    rt.storage_commit(entries, version)
    store.counter_advance(wal.storage_handoff_counter(ns), sequence)
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    channel["storage_imported"] = sequence
    rt.store_obj(OBJ_CHANNEL, channel)
    return version


def target_import_storage(rt: EnclaveRuntime, sealed: bytes) -> int:
    """Re-bind a handed-off namespace to this host; returns its version."""
    payload = open_value(_session_key(rt), sealed, b"storage-handoff")
    return _import_storage_table(
        rt, int(payload["sequence"]), int(payload["version"]), dict(payload["entries"])
    )


def recovery_install_storage(rt: EnclaveRuntime, sealed: bytes) -> int:
    """Crash recovery: re-commit a storage import this identity journaled.

    ``sealed`` is the journal-sealed ``storage-import`` record payload —
    same EGETKEY policy as :func:`recovery_install_key`.  Idempotent: a
    namespace that already advanced past the journaled version (the
    import committed, then the service kept writing) is left alone.
    """
    from repro.durability import wal

    payload = rt.journal_unseal(sealed)
    version = int(payload["version"])
    ns = rt.storage_namespace()
    store = rt._journal.store
    if version >= store.counter(ns):
        rt.storage_commit(dict(payload["entries"]), version)
    store.counter_advance(wal.storage_handoff_counter(ns), int(payload["sequence"]))
    return store.counter(ns)


def _retire_storage(rt: EnclaveRuntime, sequence: int) -> None:
    """Tombstone the source namespace at the point of no return.

    The retired counter is advanced to the outgoing handoff sequence; the
    namespace stays refusable until a *newer* handoff is imported back
    onto this host (which N-hop chains legitimately do).
    """
    from repro.durability import wal

    ns = rt.storage_namespace()
    rt._journal.store.counter_advance(wal.storage_retired_counter(ns), int(sequence))


# ---------------------------------------------------------------------------
# K_migrate handoff + self-destroy (§V-B)
# ---------------------------------------------------------------------------

def source_release_key(rt: EnclaveRuntime) -> bytes:
    """Hand K_migrate to the single attested target, then self-destroy.

    "The source control thread will refuse to resume the source enclave
    after it transfers the K_migrate ... This is done simply by keeping
    the global flag unchanged so that all the work threads will spin
    forever."
    """
    _ensure_not_destroyed(rt)
    if rt.channel_state() != CHANNEL_OPEN:
        raise ChannelError("cannot release K_migrate without an open channel")
    channel = rt.load_obj(OBJ_CHANNEL)
    if not channel.get("ckpt_done"):
        raise MigrationError("no checkpoint was generated for this migration")
    _check_key_token(rt, channel["kmigrate"], 0)
    sealed = seal_value(
        _session_key(rt),
        {"kmigrate": channel["kmigrate"], "sequence": channel["sequence"]},
        rt.random_bytes(16),
        b"kmigrate",
    )
    # Journal the transition *before* flipping the state: whatever the
    # crash timing, a "released" record on disk means this instance must
    # recover as SPENT — the converse (SPENT without a record) cannot
    # happen because the record commits first.
    rt.journal_record("released", {"sequence": channel["sequence"]})
    rt.advance_key_token(channel["kmigrate"], 1)
    # The storage namespace follows the key over the point of no return:
    # tombstone it in the same control call, so a resumed or rebuilt
    # source refuses to fork the counter lineage.
    if channel.get("storage_exported") is not None:
        _retire_storage(rt, channel["sequence"])
    # Self-destroy: the global flag stays set forever and the channel is
    # marked spent, so no second checkpoint, channel or key can exist.
    rt.set_channel_state(CHANNEL_SPENT)
    return sealed


def source_cancel_migration(rt: EnclaveRuntime) -> None:
    """Abort before the point of no return: wipe the key, resume workers.

    "If a migration is canceled, the source enclave will delete the
    K_migrate immediately so the checkpoint will be useless."
    """
    if rt.channel_state() == CHANNEL_SPENT:
        raise SelfDestroyed("cannot cancel: K_migrate was already handed over")
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    key = channel.pop("kmigrate", None)
    channel.pop("session_key", None)
    channel.pop("storage_exported", None)  # the namespace stays ours
    channel["ckpt_done"] = False
    rt.store_obj(OBJ_CHANNEL, channel)
    rt.set_channel_state(CHANNEL_NONE)
    rt.set_global_flag(0)  # workers leave the spin region
    rt.journal_record("cancelled")
    if key is not None:
        # Only retires the key, so there is nothing to refuse — and the
        # owner's K_encrypt (§V-C) is cancelled once per snapshot.
        rt.advance_key_token(key, 1)


def target_receive_key(rt: EnclaveRuntime, sealed: bytes) -> None:
    """Target side: accept K_migrate over the session channel."""
    payload = open_value(_session_key(rt), sealed, b"kmigrate")
    _install_key(rt, payload["kmigrate"], payload["sequence"], GO_LIVE_TARGET)
    # Re-sealed under *this* enclave's EGETKEY key: if the target dies
    # after this point, a same-measurement rebuild recovers K_migrate
    # from its own journal instead of begging the (SPENT) source.
    rt.journal_record(
        "key-installed",
        {"sequence": payload["sequence"]},
        secret={"kmigrate": payload["kmigrate"], "sequence": payload["sequence"]},
        aad=_KEY_RECORD_AAD[GO_LIVE_TARGET],
    )


def recovery_install_key(rt: EnclaveRuntime, sealed: bytes) -> None:
    """Crash recovery: re-install a K_migrate this enclave identity
    journaled earlier.

    ``sealed`` is the journal-sealed record payload; only an enclave with
    the same measurement on the same CPU can open it (EGETKEY policy), so
    the untrusted recovery driver can *carry* the blob but never read or
    forge it.  The seal's AAD says whose record it is, and with it which
    step of the key's one-use token the rebuilt instance's go-live takes.
    """
    for go_live, aad in _KEY_RECORD_AAD.items():
        try:
            payload = rt.journal_unseal(sealed, aad)
        except IntegrityError:
            continue
        _install_key(rt, payload["kmigrate"], payload["sequence"], go_live)
        return
    raise IntegrityError("not a K_migrate journaled by this enclave identity")


# ---------------------------------------------------------------------------
# Agent-enclave paths (§VI-D optimization)
# ---------------------------------------------------------------------------

def source_escrow_to_agent(
    rt: EnclaveRuntime,
    avr: AttestationVerificationReport,
    agent_dh_public: int,
) -> tuple[int, bytes]:
    """Escrow K_migrate to the remote agent enclave, then self-destroy.

    "the source control thread first remotely attests the agent enclave
    on the target machine and then transfers the K_migrate to it in
    advance" (§VI-D).  The agent's measurement was provisioned by the
    owner, so the source knows exactly which enclave it may trust.
    """
    _ensure_not_destroyed(rt)
    if not rt.attested():
        raise ChannelError("source enclave was never provisioned by its owner")
    if rt.channel_state() != CHANNEL_NONE:
        raise ChannelError("migration channel already established")
    secrets = rt.load_obj(OBJ_IMAGE_PRIVKEY)
    agent_mr = secrets.get("agent_mr")
    if agent_mr is None:
        raise ChannelError("owner provisioned no agent enclave measurement")
    ias_key = RsaPublicKey(secrets["ias_n"], secrets["ias_e"])
    verify_avr(avr, ias_key, expected_mrenclave=agent_mr)
    if avr.report_data != _bind_report_data("agent-escrow", agent_dh_public):
        raise AttestationError("agent quote does not bind the offered DH value")
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    if not channel.get("ckpt_done"):
        raise MigrationError("no checkpoint was generated for this migration")
    _check_key_token(rt, channel["kmigrate"], 0)

    private = dh_private(rt.rdrand)
    source_dh_public = dh_public(private)
    session_key = SymmetricKey(dh_session_key(agent_dh_public, private), "agent-escrow")
    # The agent path has no direct source↔target session, so any sealed
    # storage rides inside the escrow payload and is re-bound when the
    # agent releases the key to the attested target.
    storage = None
    if rt.storage_version():
        entries, version = rt.storage_table()
        storage = {"version": version, "entries": entries}
    sealed = seal_value(
        session_key,
        {
            "kmigrate": channel["kmigrate"],
            "sequence": channel["sequence"],
            "target_mr": rt.image.mrenclave,
            "storage": storage,
        },
        rt.random_bytes(16),
        b"agent-escrow",
    )
    # Point of no return: the key has left this instance.  Same commit
    # order as source_release_key: record first, then tombstone any
    # handed-off storage, then SPENT.
    rt.journal_record("released", {"sequence": channel["sequence"], "escrow": True})
    rt.advance_key_token(channel["kmigrate"], 1)
    if storage is not None:
        _retire_storage(rt, channel["sequence"])
    rt.set_channel_state(CHANNEL_SPENT)
    return source_dh_public, sealed


def target_request_key_from_agent(rt: EnclaveRuntime, agent_mrenclave: bytes):
    """Target side: local-attested key request to the agent enclave.

    Returns (report, dh_public): an EREPORT addressed to the agent on
    the same CPU, binding a fresh DH half.
    """
    from repro.sgx.instructions import ereport
    from repro.sgx.structures import TargetInfo

    public = _fresh_dh_public(rt)
    report = ereport(
        rt.session, TargetInfo(agent_mrenclave), _bind_report_data("agent-release", public)
    )
    return report, public


def target_install_agent_key(
    rt: EnclaveRuntime, agent_dh_public: int, sealed: bytes
) -> None:
    """Target side: install K_migrate received from the agent."""
    payload = open_from_boot(
        rt,
        agent_dh_public,
        sealed,
        b"agent-release",
        ChannelError("no agent key request in progress"),
    )
    _install_key(rt, payload["kmigrate"], payload["sequence"], GO_LIVE_TARGET)
    rt.delete_obj(OBJ_BOOT)
    storage = payload.get("storage")
    if storage is not None:
        _import_storage_table(
            rt,
            int(payload["sequence"]),
            int(storage["version"]),
            dict(storage["entries"]),
        )
    rt.journal_record(
        "key-installed",
        {"sequence": payload["sequence"], "via": "agent"},
        secret={"kmigrate": payload["kmigrate"], "sequence": payload["sequence"]},
        aad=_KEY_RECORD_AAD[GO_LIVE_TARGET],
    )


# ---------------------------------------------------------------------------
# Target restore (§III steps 3-4)
# ---------------------------------------------------------------------------
#
# The checkpoint is opened once, in step 3.  What step 4 still reads of
# it — the TCS states, the SSA-frame pages and the storage version — is
# kept as the *restore record* in enclave-private state (never on the
# untrusted library, never in a measured object slot): cleared when a
# restore starts, set when it completes, dropped at go-live.

_RESTORE_RECORD = "restore-record"


def target_restore_memory(rt: EnclaveRuntime, sealed_checkpoint: bytes) -> dict[int, int]:
    """Step-3a: decrypt the checkpoint and restore all memory.

    Returns the CSSA replay plan {tcs_index: target CSSA} the untrusted
    library must now execute with EENTER/AEX; the enclave will *verify*
    the library actually did it (step-4) before going live.

    The checkpoint is opened a window at a time: its MAC, inner digest
    and header are checked before any page is written, and then each
    window of pages is decrypted again and restored from the one
    scratch buffer the windows share.
    """
    private = rt.session.private
    private.pop(_RESTORE_RECORD, None)
    channel = rt.load_obj(OBJ_CHANNEL, default={}) or {}
    if "kmigrate" not in channel:
        raise RestoreError("K_migrate has not arrived")
    kmigrate = SymmetricKey(channel["kmigrate"], "kmigrate")
    opened = OpenedCheckpoint(kmigrate, Envelope.from_bytes(sealed_checkpoint))
    checkpoint = opened.checkpoint
    if checkpoint.code_id != rt.image.code_id or checkpoint.mrenclave != rt.image.mrenclave:
        raise RestoreError("checkpoint was taken from a different image")
    if checkpoint.sequence != channel.get("expected_sequence"):
        raise RestoreError("checkpoint sequence does not match the delivered key")
    go_live = rt.go_live_token()

    writable = {
        p.vaddr
        for p in rt.image.pages
        if Permissions.W in p.sec_info.permissions
    }
    ssa_vaddrs = [
        vaddr
        for template in rt.image.tcs_templates
        for vaddr in range(template.ossa, template.ossa + template.nssa * PAGE_SIZE, PAGE_SIZE)
    ]
    ssa = set(ssa_vaddrs)
    kept: dict[int, bytes] = {}
    # In checkpoint order: each run of writable pages is written in one
    # page-run call (a run a window splits, in one per window);
    # read-only pages (code, embedded keys) are measured into the
    # image, so the virgin enclave must already hold them.
    for vaddrs, pages in opened.windows():
        at = 0
        for writes, run in groupby(vaddrs, writable.__contains__):
            stop = at + len(list(run))
            if writes:
                rt.write_pages(vaddrs[at:stop], pages[at:stop])
            else:
                for vaddr, data in zip(vaddrs[at:stop], map(memoryview, pages[at:stop])):
                    if rt.read(vaddr, len(data)) != data:
                        raise RestoreError(f"immutable page 0x{vaddr:x} differs from the image")
            at = stop
        kept.update((v, bytes(pages[k])) for k, v in enumerate(vaddrs) if v in ssa)
    # The page writes restored the source's control block; keep ours.
    rt.set_go_live_token(go_live)
    # Enter restore mode: replayed EENTERs are counted, not executed.
    rt.set_restore_mode(1)
    for template in rt.image.tcs_templates:
        rt.set_replay_count(template.index, 0)
    # The record keeps the SSA pages, as bytes, for step 4.
    ssa_pages = {vaddr: kept[vaddr] for vaddr in ssa_vaddrs if vaddr in kept}
    private[_RESTORE_RECORD] = replace(checkpoint, pages=ssa_pages, skipped_pages=[])
    return {
        state.index: state.cssa
        for state in checkpoint.tcs_states
        if state.cssa > 0
    }


def target_verify_and_finish(rt: EnclaveRuntime) -> None:
    """Step-4: check the tracked CSSA against the checkpoint, go live.

    "before resuming execution, the target control thread will check
    whether the tracked CSSA is the same as the one in the checkpoint."
    A lying SGX library (wrong replay count) is caught here and the
    enclave refuses to run.  The checkpoint is the one step 3 opened in
    this instance: its restore record, not bytes the library hands in.
    """
    checkpoint = rt.session.private.get(_RESTORE_RECORD)
    if checkpoint is None:
        raise RestoreError("no checkpoint restore completed in this enclave instance")
    channel = rt.load_obj(OBJ_CHANNEL)
    go_live = rt.go_live_token()
    control_index = rt.image.control_tcs.index

    for state in checkpoint.tcs_states:
        if state.index == control_index:
            continue
        replays = rt.replay_count(state.index)
        if replays != state.cssa:
            raise CssaMismatch(
                f"TCS {state.index}: library replayed CSSA to {replays}, "
                f"checkpoint requires {state.cssa}"
            )
        if state.cssa > 0 and rt.cssa_eenter(state.index) != state.cssa - 1:
            raise CssaMismatch(
                f"TCS {state.index}: tracked CSSA_EENTER "
                f"{rt.cssa_eenter(state.index)} != {state.cssa - 1}"
            )

    # The replay's dummy AEX frames clobbered the restored SSA pages;
    # rewrite them (and the bookkeeping records) from the checkpoint.
    for template in rt.image.tcs_templates:
        for frame in range(template.nssa):
            vaddr = template.ossa + frame * PAGE_SIZE
            if vaddr in checkpoint.pages:
                rt.write(vaddr, checkpoint.pages[vaddr])
        state = checkpoint.tcs_state(template.index)
        if template.index != control_index:
            rt.set_local_flag(
                template.index, FLAG_BUSY if state.cssa > 0 else FLAG_FREE
            )
            record = rt.layout.tcs_record_vaddr(template.index, TCS_CSSA_EENTER_OFF)
            rt.store_u64(record, state.cssa)

    # Storage/checkpoint binding: a checkpoint taken at storage version N
    # must not go live on a namespace older than N — that would pair a
    # fresh memory image with rolled-back persistent state (the stale
    # storage-handoff attack).  Version 0 means "no storage constraint".
    if checkpoint.storage_version:
        if rt.storage_version() < checkpoint.storage_version:
            raise StorageRolledBack(
                f"checkpoint was taken at storage version {checkpoint.storage_version} "
                f"but this host's namespace is at {rt.storage_version()}: refusing to "
                "go live on rolled-back persistent state"
            )

    # A key goes live once: owner-keyed resumes (§V-C, token step 0)
    # are the owner's to grant and audit instead.
    if go_live:
        _check_key_token(rt, channel["kmigrate"], go_live - 1)
    del rt.session.private[_RESTORE_RECORD]
    rt.journal_record("live")
    if go_live:
        rt.advance_key_token(channel["kmigrate"], go_live)
        rt.set_go_live_token(0)
    rt.set_restore_mode(0)
    rt.set_global_flag(0)  # end of migration: workers may run
