"""Local and remote attestation: Quoting Enclave, IAS stand-in, owners.

"SGX enables a particular enclave, called the Quoting Enclave, which is
devoted to remote attestation ... The enclave owner can use attestation
services, e.g., IAS, to assess the trustworthiness of the assertion"
(§II-A).  The trust structure is reproduced faithfully:

* an enclave EREPORTs to the Quoting Enclave (local attestation, only
  valid on the same CPU);
* the Quoting Enclave signs a QUOTE with a platform attestation key;
* the :class:`AttestationService` (IAS) knows the platform keys and signs
  verification reports with its own key;
* relying parties (enclave owners — and during migration, the *source
  control thread*, §III Step-2) hold only the IAS public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import sha256
from repro.crypto.keys import KeyPair
from repro.crypto.rsa import RsaPublicKey, role_keypair
from repro.errors import AttestationError, QuoteRejected
from repro.serde import pack
from repro.sgx.cpu import EnclaveSession, SgxCpu
from repro.sgx.instructions import REPORT_DATA_LEN, ereport
from repro.sgx.structures import Quote, Report, TargetInfo
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel

#: The measurement every Quoting Enclave instance reports.  Publicly known
#: (it identifies Intel's signed QE binary); used as the EREPORT target.
QUOTING_ENCLAVE_MRENCLAVE = sha256(b"repro/quoting-enclave/v1")


class QuotingEnclave:
    """The platform's quoting enclave.

    Holds the (provisioned) platform attestation key.  Turns a local
    REPORT addressed to it into a remotely verifiable QUOTE.
    """

    def __init__(self, cpu: SgxCpu, attestation_key: KeyPair) -> None:
        self.cpu = cpu
        self._attestation_key = attestation_key
        self.mrenclave = QUOTING_ENCLAVE_MRENCLAVE

    @property
    def target_info(self) -> TargetInfo:
        """What an enclave passes to EREPORT to address this QE."""
        return TargetInfo(self.mrenclave)

    def quote(self, report: Report) -> Quote:
        """Verify the local report and sign a quote for it."""
        from repro.crypto.hashes import constant_time_equal, hmac_sha256

        expected = hmac_sha256(self.cpu._report_key_for(self.mrenclave), report.body())
        if not constant_time_equal(expected, report.mac):
            raise AttestationError("report MAC invalid: produced on a different CPU?")
        unsigned = Quote(
            mrenclave=report.mrenclave,
            mrsigner=report.mrsigner,
            attributes=report.attributes,
            platform_id=self.cpu.platform_id,
            report_data=report.report_data,
            signature=b"",
        )
        signature = self._attestation_key.private.sign(unsigned.signed_body())
        return Quote(
            mrenclave=unsigned.mrenclave,
            mrsigner=unsigned.mrsigner,
            attributes=unsigned.attributes,
            platform_id=unsigned.platform_id,
            report_data=unsigned.report_data,
            signature=signature,
        )


def quote_for(session: EnclaveSession, qe: QuotingEnclave, report_data: bytes) -> Quote:
    """Convenience: EREPORT to the QE, then ask it for a quote."""
    if len(report_data) > REPORT_DATA_LEN:
        raise AttestationError("report data exceeds 64 bytes")
    report = ereport(session, qe.target_info, report_data)
    return qe.quote(report)


@dataclass(frozen=True)
class AttestationVerificationReport:
    """IAS response: the verified quote body plus the service's signature."""

    quote_body_hash: bytes
    mrenclave: bytes
    mrsigner: bytes
    report_data: bytes
    status: str
    signature: bytes

    def signed_body(self) -> bytes:
        return pack(
            {
                "quote_body_hash": self.quote_body_hash,
                "mrenclave": self.mrenclave,
                "mrsigner": self.mrsigner,
                "report_data": self.report_data,
                "status": self.status,
            }
        )


class AttestationService:
    """IAS stand-in: verifies quotes against registered platform keys."""

    def __init__(self, clock: VirtualClock, costs: CostModel, keypair: KeyPair) -> None:
        self._clock = clock
        self._costs = costs
        self._keypair = keypair
        self._platforms: dict[bytes, RsaPublicKey] = {}

    @property
    def public_key(self) -> RsaPublicKey:
        """The trust anchor relying parties pin."""
        return self._keypair.public

    def register_platform(self, platform_id: bytes, attestation_public_key: RsaPublicKey) -> None:
        """Enroll a platform (done once, out of band, by the manufacturer)."""
        self._platforms[platform_id] = attestation_public_key

    def verify_quote(self, quote: Quote) -> AttestationVerificationReport:
        """Check a quote's platform signature and issue a signed AVR."""
        self._clock.advance(self._costs.ias_processing_ns)
        platform_key = self._platforms.get(quote.platform_id)
        if platform_key is None:
            raise QuoteRejected("unknown platform")
        if not platform_key.is_valid(quote.signed_body(), quote.signature):
            raise QuoteRejected("quote signature invalid")
        body = AttestationVerificationReport(
            quote_body_hash=sha256(quote.signed_body()),
            mrenclave=quote.mrenclave,
            mrsigner=quote.mrsigner,
            report_data=quote.report_data,
            status="OK",
            signature=b"",
        )
        signature = self._keypair.private.sign(body.signed_body())
        return AttestationVerificationReport(
            quote_body_hash=body.quote_body_hash,
            mrenclave=body.mrenclave,
            mrsigner=body.mrsigner,
            report_data=body.report_data,
            status=body.status,
            signature=signature,
        )


def verify_avr(
    avr: AttestationVerificationReport,
    ias_public_key: RsaPublicKey,
    expected_mrenclave: bytes,
) -> None:
    """Relying-party check of an AVR: IAS signature, status, measurement."""
    ias_public_key.verify(avr.signed_body(), avr.signature)
    if avr.status != "OK":
        raise QuoteRejected(f"attestation status {avr.status}")
    if avr.mrenclave != expected_mrenclave:
        raise QuoteRejected(
            f"measurement mismatch: expected {expected_mrenclave.hex()[:16]}, "
            f"got {avr.mrenclave.hex()[:16]}"
        )


def provision_platform(cpu: SgxCpu, ias: AttestationService) -> QuotingEnclave:
    """Manufacture-time setup: give a CPU a QE and register it with IAS."""
    attestation_key = KeyPair(role_keypair(f"platform/{cpu.name}"), f"{cpu.name}/attestation")
    qe = QuotingEnclave(cpu, attestation_key)
    ias.register_platform(cpu.platform_id, attestation_key.public)
    return qe
