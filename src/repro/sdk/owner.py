"""The enclave owner: the remote party that trusts only the enclave.

At launch the owner attests the enclave (via IAS) and provisions the
plaintext image private key of §V-B.  For legal checkpoint/resume (§V-C)
the owner hands out K_encrypt over the same attested exchange and logs
every grant: "all the checkpoint/resume operations are logged.  By
auditing the log, an owner can check suspicious rollbacks."

The owner is *not* on the migration path (§III: "the remote attestation
is done by source control thread without involving the enclave owner").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.authenc import seal_value
from repro.crypto.dh import dh_private, dh_public, dh_session_key
from repro.crypto.keys import SymmetricKey
from repro.errors import AttestationError
from repro.sdk.builder import BuiltImage
from repro.sdk.control import _bind_report_data
from repro.sgx.attestation import AttestationService, verify_avr
from repro.sgx.structures import Quote
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.rng import DeterministicRng


@dataclass
class AuditEntry:
    """One owner-audited checkpoint/resume operation."""

    t_ns: int
    image: str
    operation: str  # "snapshot" | "resume"
    sequence: int | None
    reason: str


@dataclass
class _ImageRecord:
    built: BuiltImage
    kencrypt: SymmetricKey | None = None
    last_sequence: int | None = None


class EnclaveOwner:
    """Holds per-image secrets; answers attested key requests."""

    def __init__(
        self,
        name: str,
        ias: AttestationService,
        clock: VirtualClock,
        costs: CostModel,
        rng: DeterministicRng,
    ) -> None:
        self.name = name
        self.ias = ias
        self.clock = clock
        self.costs = costs
        self.rng = rng.fork(f"owner/{name}")
        self._images: dict[str, _ImageRecord] = {}
        self.audit_log: list[AuditEntry] = []
        self._agent_mrenclave: bytes | None = None

    def register_image(self, built: BuiltImage) -> None:
        self._images[built.image.name] = _ImageRecord(built)

    def set_agent_image(self, built: BuiltImage) -> None:
        """Declare the developer-provided agent enclave (§VI-D).

        Its measurement is provisioned into every enclave so the source
        control thread knows which agent it may escrow K_migrate to.
        """
        self.register_image(built)
        self._agent_mrenclave = built.image.mrenclave

    # ------------------------------------------------------------- internals
    def _record(self, image_name: str) -> _ImageRecord:
        record = self._images.get(image_name)
        if record is None:
            raise AttestationError(f"owner does not manage image {image_name!r}")
        return record

    def _attest(
        self, record: _ImageRecord, quote: Quote, purpose: str, enclave_public: int
    ) -> None:
        """Verify a quote through IAS and check the DH binding."""
        # App -> owner -> IAS -> owner: two WAN round trips.
        self.clock.advance(self.costs.wan_round_trip_ns())
        avr = self.ias.verify_quote(quote)
        self.clock.advance(self.costs.wan_round_trip_ns())
        verify_avr(avr, self.ias.public_key, expected_mrenclave=record.built.image.mrenclave)
        if avr.report_data != _bind_report_data(purpose, enclave_public):
            raise AttestationError("quote does not bind the offered DH value")

    def _answer(self, enclave_public: int, payload: dict, aad: bytes) -> tuple[int, bytes]:
        """Complete the DH exchange and seal ``payload`` for the enclave."""
        private = dh_private(self.rng)
        session_key = SymmetricKey(dh_session_key(enclave_public, private), "owner-session")
        return dh_public(private), seal_value(session_key, payload, self.rng.bytes(16), aad)

    # ------------------------------------------------------------- launch
    def provision(self, image_name: str, quote: Quote, dh_public: int) -> tuple[int, bytes]:
        """Launch-time provisioning: deliver the plaintext image key."""
        record = self._record(image_name)
        self._attest(record, quote, "provision", dh_public)
        key = record.built.image_private_key.private
        payload = {
            "priv_n": key.n,
            "priv_e": key.e,
            "priv_d": key.d,
            "ias_n": self.ias.public_key.n,
            "ias_e": self.ias.public_key.e,
            "agent_mr": self._agent_mrenclave,
        }
        return self._answer(dh_public, payload, b"provision")

    # ------------------------------------------------------------- §V-C keys
    def grant_snapshot_key(
        self, image_name: str, quote: Quote, dh_public: int, reason: str
    ) -> tuple[int, bytes]:
        """Hand K_encrypt to an attested enclave about to checkpoint."""
        record = self._record(image_name)
        self._attest(record, quote, "snapshot", dh_public)
        if record.kencrypt is None:
            record.kencrypt = SymmetricKey(self.rng.bytes(32), f"{image_name}/kencrypt")
        self.audit_log.append(
            AuditEntry(self.clock.now_ns, image_name, "snapshot", None, reason)
        )
        payload = {"key": record.kencrypt.material, "sequence": None}
        return self._answer(dh_public, payload, b"snapshot")

    def record_snapshot(self, image_name: str, sequence: int) -> None:
        """Log which checkpoint sequence a granted snapshot produced."""
        record = self._record(image_name)
        record.last_sequence = sequence
        for entry in reversed(self.audit_log):
            if entry.image == image_name and entry.operation == "snapshot":
                entry.sequence = sequence
                break

    def grant_resume_key(
        self, image_name: str, quote: Quote, dh_public: int, reason: str
    ) -> tuple[int, bytes]:
        """Hand K_encrypt to a fresh, attested enclave that will resume."""
        record = self._record(image_name)
        if record.kencrypt is None:
            raise AttestationError(f"no snapshot key was ever issued for {image_name!r}")
        self._attest(record, quote, "resume", dh_public)
        self.audit_log.append(
            AuditEntry(self.clock.now_ns, image_name, "resume", record.last_sequence, reason)
        )
        payload = {"key": record.kencrypt.material, "sequence": record.last_sequence}
        return self._answer(dh_public, payload, b"resume")

    def suspicious_rollbacks(self) -> list[AuditEntry]:
        """Audit helper: resumes of a sequence that was already resumed."""
        seen: set[int] = set()
        flagged = []
        for entry in self.audit_log:
            if entry.operation != "resume" or entry.sequence is None:
                continue
            if entry.sequence in seen:
                flagged.append(entry)
            seen.add(entry.sequence)
        return flagged
