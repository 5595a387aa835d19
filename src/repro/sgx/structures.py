"""SGX architectural data structures.

These mirror the structures of §II-A of the paper: SECS (enclave control
structure), TCS (thread control structure, with the hardware-only CSSA
field that drives §IV-C), SSA frames, page metadata, and the attestation
structures (SIGSTRUCT, REPORT, QUOTE).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.errors import SgxAccessFault
from repro.serde import pack, unpack

PAGE_SIZE = 4096

#: Number of SSA frames per TCS.  Two levels of nested exception handling
#: are all the SDK's handler model ever needs; a third frame gives slack.
DEFAULT_NSSA = 3

#: Slots in one Version Array page (real SGX: 4096/8 = 512).
VA_SLOTS_PER_PAGE = 512


class PageType(enum.Enum):
    """EPC page types tracked by the EPCM."""

    SECS = "secs"
    TCS = "tcs"
    REG = "reg"
    VA = "va"


#: EPCM type column codes, by PageType, and back.
PAGE_TYPES = (PageType.REG, PageType.SECS, PageType.TCS, PageType.VA)
TYPE_CODE = {page_type: code for code, page_type in enumerate(PAGE_TYPES)}


class Permissions(enum.Flag):
    """EPC page access permissions."""

    NONE = 0
    R = enum.auto()
    W = enum.auto()
    X = enum.auto()
    RW = R | W
    RX = R | X
    RWX = R | W | X


@dataclass(frozen=True)
class SecInfo:
    """Security attributes supplied to EADD for one page."""

    page_type: PageType
    permissions: Permissions

    @cached_property
    def _encoded(self) -> bytes:
        return f"{self.page_type.value}:{self.permissions.value}".encode().ljust(64, b"\x00")

    def to_bytes(self) -> bytes:
        """The 64 bytes EADD measures; encoded once per SecInfo."""
        return self._encoded

    @cached_property
    def epcm_codes(self) -> tuple[int, int]:
        """The EPCM type code and permission bits EADD gives the page."""
        return TYPE_CODE[self.page_type], self.permissions.value


@dataclass
class Secs:
    """SGX Enclave Control Structure.

    Lives in an EPC page that no software — not even the enclave — can
    read.  The only way to recreate it on a target machine is to rebuild
    the enclave from its image (restore Step-1 of §III).
    """

    eid: int
    base: int
    size: int
    mrenclave: bytes = b""
    mrsigner: bytes = b""
    attributes: int = 0
    initialized: bool = False


class Tcs:
    """Thread Control Structure.

    ``CSSA`` is maintained by the processor and *cannot be read or written
    by any software, including the enclave itself* — the property below
    faults exactly like real hardware, and the in-enclave tracking of
    §IV-C exists because of it.  Hardware code inside :mod:`repro.sgx`
    uses the underscored attribute directly.
    """

    def __init__(self, vaddr: int, oentry: str, ossa: int, nssa: int = DEFAULT_NSSA) -> None:
        self.vaddr = vaddr
        self.oentry = oentry          # named entry point in the image
        self.ossa = ossa              # SSA region base vaddr
        self.nssa = nssa
        self._cssa = 0                # hardware-only
        self._active = False          # a logical processor is inside

    # -- software-facing view -------------------------------------------------
    @property
    def cssa(self) -> int:
        raise SgxAccessFault("TCS.CSSA is maintained by hardware and not software-readable")

    @property
    def active(self) -> bool:
        raise SgxAccessFault("TCS busy state is not software-readable")

    def to_bytes(self) -> bytes:
        """Serialize the software-visible TCS template (for measurement).

        CSSA and the busy flag are runtime state, zero at build time, and
        deliberately excluded — they are what migration must reconstruct.
        """
        return pack(
            {"vaddr": self.vaddr, "oentry": self.oentry, "ossa": self.ossa, "nssa": self.nssa}
        )

    def __repr__(self) -> str:
        return f"<TCS @0x{self.vaddr:x} entry={self.oentry}>"


@dataclass
class SsaFrame:
    """One State Save Area frame.

    On AEX the processor stores the interrupted execution context here.
    In this model a context is a dict from the canonical value universe
    (program counter, registers, entry name) — see :mod:`repro.serde`.
    """

    context: dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        return pack(self.context)

    @staticmethod
    def from_bytes(data: bytes) -> "SsaFrame":
        return SsaFrame(unpack(data))


@dataclass(frozen=True)
class SigStruct:
    """Enclave signature structure checked by EINIT.

    Binds the expected measurement to the sealing identity of the vendor
    key that signed the image.
    """

    mrenclave: bytes
    vendor: str
    signer_modulus: int
    signature: bytes

    def signed_body(self) -> bytes:
        return pack({"mrenclave": self.mrenclave, "vendor": self.vendor})


@dataclass(frozen=True)
class TargetInfo:
    """Identifies the enclave a local-attestation REPORT is destined for."""

    mrenclave: bytes


@dataclass(frozen=True)
class Report:
    """EREPORT output: local attestation evidence.

    The MAC is computed with the *target* enclave's report key, which only
    that enclave (via EGETKEY) and the CPU can derive — so a report
    verifies only on the same processor it was created on.
    """

    mrenclave: bytes
    mrsigner: bytes
    attributes: int
    cpu_id: bytes
    report_data: bytes
    mac: bytes

    def body(self) -> bytes:
        return pack(
            {
                "mrenclave": self.mrenclave,
                "mrsigner": self.mrsigner,
                "attributes": self.attributes,
                "cpu_id": self.cpu_id,
                "report_data": self.report_data,
            }
        )


@dataclass(frozen=True)
class Quote:
    """Remote-attestation quote produced by the Quoting Enclave."""

    mrenclave: bytes
    mrsigner: bytes
    attributes: int
    platform_id: bytes
    report_data: bytes
    signature: bytes

    def signed_body(self) -> bytes:
        return pack(
            {
                "mrenclave": self.mrenclave,
                "mrsigner": self.mrsigner,
                "attributes": self.attributes,
                "platform_id": self.platform_id,
                "report_data": self.report_data,
            }
        )


@dataclass(frozen=True)
class EvictedPage:
    """EWB output: sealed page in normal memory + paging metadata.

    ``version_slot`` points at the VA slot holding the anti-replay
    version.  The ciphertext is bound to the CPU's page-encryption key:
    carrying this blob to another machine and ELDB-ing it there fails,
    which is Difference-1 of §II-B.
    """

    eid: int
    vaddr: int
    page_type: PageType
    permissions: Permissions
    ciphertext: bytes
    mac: bytes
    version: int
