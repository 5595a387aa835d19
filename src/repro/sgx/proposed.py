"""The paper's §VII-B hardware suggestions, implemented as an extension ISA.

"Currently, due to hardware limitations (both SGX v1 and v2), an enclave
cannot be migrated transparently and securely by system software.  In this
section, we give some suggestions on hardware design to assist transparent
enclave migration."

We implement every suggested instruction so the ablation benchmark can
compare the paper's *software* protocol (control thread, two-phase
checkpointing, CSSA tracking) against the *proposed hardware* path:

* **EPUTKEY**       — install migration keys into the CPU; only the
  special *control enclave* may execute it.
* **EMIGRATE**      — freeze an enclave (EENTER/ERESUME fault) so its
  state cannot change during the copy.
* **ESWPOUT**       — re-seal a resident EPC page under the migration
  keys (works for REG, TCS — including the hardware CSSA — and SECS).
* **ECHANGEOUT**    — translate an already-evicted page from the CPU
  sealing key to the migration keys.
* **ESWPIN / ECHANGEIN** — the inverse operations on the target.
* **EMIGRATEDONE**  — verify the stream MAC over everything swapped in
  and make the enclave runnable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import AttestationError, SgxInstructionFault, SgxMacMismatch
from repro.serde import pack, unpack
from repro.sgx.cpu import SgxCpu
from repro.sgx.enclave import EnclaveHw
from repro.sgx.structures import (
    PAGE_SIZE,
    EvictedPage,
    PageType,
    Permissions,
    Tcs,
)

#: Well-known measurement of the (Intel-signed) control enclave, analogous
#: to the Quoting Enclave: EPUTKEY only executes on its behalf.
CONTROL_ENCLAVE_MRENCLAVE = sha256(b"repro/control-enclave/v1")


@dataclass(frozen=True)
class MigrationKeys:
    """The two keys §VII-B calls for: encryption plus signing."""

    encryption: SymmetricKey
    signing: SymmetricKey


class ControlEnclave:
    """The special per-machine enclave that negotiates migration keys.

    "We suggest that Intel can provide a special enclave, e.g., control
    enclave, for two machines to share the migration keys.  The control
    enclaves on the source and target machines can use remote attestation
    to authenticate each other and agree on randomly generated migration
    keys."
    """

    def __init__(self, cpu: SgxCpu) -> None:
        self.cpu = cpu
        self.mrenclave = CONTROL_ENCLAVE_MRENCLAVE

    def negotiate_keys(self, peer: "ControlEnclave") -> MigrationKeys:
        """Attested key agreement with the peer machine's control enclave.

        Modelled at the message level: both sides verify the peer is a
        genuine control enclave (same well-known measurement) and derive
        fresh keys.  The derived keys are installed on *both* CPUs with
        EPUTKEY by the caller.
        """
        if peer.mrenclave != CONTROL_ENCLAVE_MRENCLAVE:
            raise AttestationError("peer is not a genuine control enclave")
        if peer.cpu is self.cpu:
            raise SgxInstructionFault("migration keys require two distinct machines")
        material = self.cpu.rng.bytes(32) + peer.cpu.rng.bytes(32)
        root = SymmetricKey(sha256(material), "migration-root")
        return MigrationKeys(root.derive("encryption"), root.derive("signing"))


@dataclass(frozen=True)
class MigratablePage:
    """ESWPOUT/ECHANGEOUT output: a page sealed under the migration keys."""

    kind: str  # "secs" | "tcs" | "reg" | "evicted"
    vaddr: int
    seq: int
    ciphertext: bytes
    mac: bytes

    @property
    def size(self) -> int:
        return len(self.ciphertext) + len(self.mac) + 24


@dataclass
class _MigrationState:
    """Per-enclave hardware state while a migration is in flight."""

    keys: MigrationKeys
    seq: int = 0
    stream_hash: "hashlib._Hash" = field(default_factory=hashlib.sha256)


def eputkey(cpu: SgxCpu, control: ControlEnclave, keys: MigrationKeys) -> None:
    """Install migration keys into the CPU (control enclave only)."""
    if control.cpu is not cpu:
        raise SgxInstructionFault("EPUTKEY must run on the local control enclave")
    if control.mrenclave != CONTROL_ENCLAVE_MRENCLAVE:
        raise SgxInstructionFault("EPUTKEY requires the control enclave")
    cpu._installed_migration_keys = keys  # hardware register, not software-visible


def _migration_keys(cpu: SgxCpu) -> MigrationKeys:
    keys = getattr(cpu, "_installed_migration_keys", None)
    if keys is None:
        raise SgxInstructionFault("no migration keys installed (EPUTKEY first)")
    return keys


def emigrate(cpu: SgxCpu, enclave: EnclaveHw) -> None:
    """Freeze the enclave: all entries fault until EMIGRATEDONE elsewhere."""
    cpu.charge(cpu.costs.eenter_ns)
    keys = _migration_keys(cpu)
    if any(t._active for t in enclave.tcs_list):
        raise SgxInstructionFault("EMIGRATE requires no logical processor inside")
    enclave.frozen = True
    enclave._migration_state = _MigrationState(keys)
    cpu.trace.emit("sgx", "emigrate", cpu=cpu.name, eid=enclave.eid)


def _require_migrating(enclave: EnclaveHw) -> _MigrationState:
    state = getattr(enclave, "_migration_state", None)
    if state is None or not enclave.frozen:
        raise SgxInstructionFault("ESWPOUT/ECHANGEOUT only after EMIGRATE")
    return state


def _seal(state: _MigrationState, kind: str, vaddr: int, plaintext: bytes) -> MigratablePage:
    seq = state.seq
    state.seq += 1
    nonce = seq.to_bytes(8, "big")
    from repro.crypto.backend import get_backend

    ciphertext = get_backend().aes_ctr(state.keys.encryption.material[:16], nonce, plaintext)
    aad = kind.encode() + vaddr.to_bytes(8, "big") + nonce
    mac = hmac_sha256(state.keys.signing.material, aad + ciphertext)
    state.stream_hash.update(mac)
    return MigratablePage(kind, vaddr, seq, ciphertext, mac)


def _unseal(keys: MigrationKeys, page: MigratablePage) -> bytes:
    nonce = page.seq.to_bytes(8, "big")
    aad = page.kind.encode() + page.vaddr.to_bytes(8, "big") + nonce
    expected = hmac_sha256(keys.signing.material, aad + page.ciphertext)
    if not constant_time_equal(expected, page.mac):
        raise SgxMacMismatch("migratable page MAC check failed")
    from repro.crypto.backend import get_backend

    return get_backend().aes_ctr(keys.encryption.material[:16], nonce, page.ciphertext)


def eswpout_secs(cpu: SgxCpu, enclave: EnclaveHw) -> MigratablePage:
    """Swap out the SECS itself — the piece SGX v1 can never externalize."""
    cpu.charge(cpu.costs.ewb_page_ns)
    state = _require_migrating(enclave)
    secs = enclave.secs
    payload = pack(
        {
            "base": secs.base,
            "size": secs.size,
            "mrenclave": secs.mrenclave,
            "mrsigner": secs.mrsigner,
            "attributes": secs.attributes,
        }
    )
    return _seal(state, "secs", 0, payload)


def eswpout(cpu: SgxCpu, enclave: EnclaveHw, vaddr: int) -> MigratablePage:
    """Swap out one resident page under the migration keys."""
    cpu.charge(cpu.costs.ewb_page_ns)
    state = _require_migrating(enclave)
    index = enclave._page_index(vaddr)
    if cpu.epc.page_type(index) is PageType.TCS:
        tcs = cpu.epc.hw[index]
        payload = pack(
            {
                "vaddr": tcs.vaddr,
                "oentry": tcs.oentry,
                "ossa": tcs.ossa,
                "nssa": tcs.nssa,
                "cssa": tcs._cssa,  # hardware migrates what software cannot read
            }
        )
        kind = "tcs"
    else:
        payload = pack(
            {
                "perms": cpu.epc.permissions(index).value,
                "data": cpu.epc.read(index, 0, PAGE_SIZE),
            }
        )
        kind = "reg"
    blob = _seal(state, kind, vaddr, payload)
    enclave._evict_page(vaddr)
    cpu.epc.free(index)
    return blob


def echangeout(cpu: SgxCpu, enclave: EnclaveHw, evicted: EvictedPage, va_index: int, slot: int) -> MigratablePage:
    """Re-key an already-evicted page from the CPU key to the migration keys.

    "Some enclave pages may have been evicted to normal memory before
    migration.  For such pages, a new instruction called ECHANGEOUT can
    change its original encryption key to the migration encryption key."
    """
    cpu.charge(cpu.costs.ewb_page_ns)
    state = _require_migrating(enclave)
    from repro.sgx.instructions import _va_slots

    slots = _va_slots(cpu, va_index, slot)
    plaintext = cpu.mee.unseal_page(evicted, slots[slot])
    slots[slot] = 0
    enclave._drop_page(evicted.vaddr)
    payload = pack({"perms": evicted.permissions.value, "data": plaintext})
    return _seal(state, "reg", evicted.vaddr, payload)


def ectrout(cpu: SgxCpu, enclave: EnclaveHw, counters: dict[str, int]) -> MigratablePage:
    """Swap out the enclave's monotonic-counter bank under the migration keys.

    The §VII-B suggestions stop at memory pages; sealed storage adds one
    more piece of state SGX v1/v2 cannot externalize — the counter bank
    that anchors freshness.  ECTROUT seals the (name → value) bank into
    the same MAC'd migration stream as the pages, so the proposed
    hardware path can carry it without the software handoff step.
    """
    cpu.charge(cpu.costs.ewb_page_ns)
    state = _require_migrating(enclave)
    bank = {str(name): int(value) for name, value in counters.items()}
    if any(value < 0 for value in bank.values()):
        raise SgxInstructionFault("ECTROUT: counter values must be non-negative")
    return _seal(state, "ctr", 0, pack({"counters": bank}))


def ectrin(
    cpu: SgxCpu, page: MigratablePage, current: dict[str, int]
) -> dict[str, int]:
    """Install a migrated counter bank; the hardware refuses rewinds.

    ``current`` is the target CPU's view of the same counters.  A bank
    whose value for any counter is below the local value would hand the
    adversary a hardware-blessed rollback, so the instruction faults
    instead of clamping — policy belongs to software, rejection to
    hardware.
    """
    cpu.charge(cpu.costs.ewb_page_ns)
    keys = _migration_keys(cpu)
    if page.kind != "ctr":
        raise SgxInstructionFault("ECTRIN requires a counter-bank page")
    bank = unpack(_unseal(keys, page))["counters"]
    for name, value in current.items():
        incoming = int(bank.get(str(name), 0))
        if incoming < int(value):
            raise SgxInstructionFault(
                f"ECTRIN: counter {name!r} would rewind from {value} to {incoming}"
            )
    return {str(name): int(value) for name, value in bank.items()}


def finalize_stream(enclave: EnclaveHw) -> bytes:
    """Source-side: MAC over the whole migration stream (sent last)."""
    state = _require_migrating(enclave)
    return hmac_sha256(state.keys.signing.material, b"stream" + state.stream_hash.digest())


# ---------------------------------------------------------------------------
# Target side
# ---------------------------------------------------------------------------

def eswpin_secs(cpu: SgxCpu, page: MigratablePage) -> EnclaveHw:
    """Recreate the enclave shell from a migrated SECS."""
    cpu.charge(cpu.costs.eldb_page_ns)
    keys = _migration_keys(cpu)
    fields = unpack(_unseal(keys, page))
    eid = cpu.new_eid()
    secs_index = cpu.epc.alloc(eid, vaddr=0, page_type=PageType.SECS, permissions=Permissions.NONE)
    enclave = EnclaveHw(eid, fields["base"], fields["size"], cpu.epc, secs_index)
    enclave.secs.mrenclave = fields["mrenclave"]
    enclave.secs.mrsigner = fields["mrsigner"]
    enclave.secs.attributes = fields["attributes"]
    enclave.secs.initialized = True
    enclave.measurement.finalize()
    enclave.frozen = True  # stays frozen until EMIGRATEDONE
    enclave._migration_state = _MigrationState(keys)
    enclave._migration_state.stream_hash.update(page.mac)
    cpu.epc.hw[secs_index] = enclave.secs
    cpu.enclaves[eid] = enclave
    return enclave


def eswpin(cpu: SgxCpu, enclave: EnclaveHw, page: MigratablePage) -> None:
    """Install one migrated page into the target enclave."""
    cpu.charge(cpu.costs.eldb_page_ns)
    state = _require_migrating(enclave)
    payload = _unseal(state.keys, page)
    state.stream_hash.update(page.mac)
    fields = unpack(payload)
    if page.kind == "tcs":
        tcs = Tcs(fields["vaddr"], fields["oentry"], fields["ossa"], fields["nssa"])
        tcs._cssa = fields["cssa"]
        index = cpu.epc.alloc(enclave.eid, page.vaddr, PageType.TCS, Permissions.NONE, tcs)
        enclave._map_page(page.vaddr, index, tcs=tcs)
    elif page.kind == "reg":
        perms = Permissions(fields["perms"])
        index = cpu.epc.alloc(enclave.eid, page.vaddr, PageType.REG, perms)
        cpu.epc.write(index, 0, fields["data"])
        enclave._map_page(page.vaddr, index)
    else:
        raise SgxInstructionFault(f"ESWPIN cannot install kind {page.kind!r}")


#: ECHANGEIN mirrors ESWPIN for pages that should land evicted; for the
#: model we always land pages resident, so it is the same operation.
echangein = eswpin


def emigratedone(cpu: SgxCpu, enclave: EnclaveHw, stream_mac: bytes) -> None:
    """Verify the migrated state and make the enclave runnable."""
    cpu.charge(cpu.costs.einit_ns)
    state = _require_migrating(enclave)
    expected = hmac_sha256(state.keys.signing.material, b"stream" + state.stream_hash.digest())
    if not constant_time_equal(expected, stream_mac):
        raise SgxMacMismatch("EMIGRATEDONE stream verification failed")
    enclave.frozen = False
    del enclave._migration_state
    cpu.trace.emit("sgx", "emigratedone", cpu=cpu.name, eid=enclave.eid)
