"""MRENCLAVE computation.

"During enclave construction, the processor computes a digest of the
enclave which represents the whole enclave layout and memory contents"
(§II-A).  The digest is a running SHA-256 over a log of ECREATE / EADD /
EEXTEND records, so two enclaves built from the same image on different
machines measure identically — which is what lets the source control
thread attest a *virgin* target enclave built from the same image.
"""

from __future__ import annotations

import hashlib

from repro.errors import SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, SecInfo

_EXTEND_CHUNK = 256
_EXTEND_OFFSETS = tuple(
    (offset, offset.to_bytes(4, "little")) for offset in range(0, PAGE_SIZE, _EXTEND_CHUNK)
)
_EEXTEND_TAG = len(b"EEXTEND").to_bytes(1, "big") + b"EEXTEND"


class MeasurementLog:
    """Running enclave measurement, updated by build-time instructions."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._finalized: bytes | None = None

    def _check_open(self) -> None:
        if self._finalized is not None:
            raise SgxInstructionFault("enclave measurement already finalized by EINIT")

    def _update(self, tag: bytes, payload: bytes) -> None:
        self._check_open()
        self._hash.update(len(tag).to_bytes(1, "big") + tag + payload)

    def ecreate(self, base: int, size: int) -> None:
        self._update(b"ECREATE", base.to_bytes(8, "little") + size.to_bytes(8, "little"))

    def eadd(self, vaddr: int, sec_info: SecInfo) -> None:
        self._update(b"EADD", vaddr.to_bytes(8, "little") + sec_info.to_bytes())

    def eextend(self, vaddr: int, page_content: bytes) -> None:
        """Measure one page's content in 256-byte chunks, as hardware does.

        Each chunk is one EEXTEND record; the page's 16 records go into
        the running hash in one update, which digests the same bytes.
        """
        if len(page_content) != PAGE_SIZE:
            raise SgxInstructionFault("EEXTEND measures whole pages")
        self._check_open()
        head = _EEXTEND_TAG + vaddr.to_bytes(8, "little")
        content = memoryview(page_content)
        records = []
        for offset, offset_bytes in _EXTEND_OFFSETS:
            records += (head, offset_bytes, content[offset : offset + _EXTEND_CHUNK])
        self._hash.update(b"".join(records))

    def finalize(self) -> bytes:
        """Freeze and return MRENCLAVE (called by EINIT)."""
        if self._finalized is None:
            self._finalized = self._hash.digest()
        return self._finalized

    @property
    def value(self) -> bytes:
        """The digest so far (finalized value once EINIT has run)."""
        if self._finalized is not None:
            return self._finalized
        return self._hash.digest()
