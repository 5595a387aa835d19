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

import numpy as np

from repro.errors import SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, SecInfo

_EXTEND_CHUNK = 256
_EEXTEND_TAG = len(b"EEXTEND").to_bytes(1, "big") + b"EEXTEND"
#: One page's 16 EEXTEND records, one per row: ``tag || vaddr (8, LE) ||
#: offset (4, LE) || 256 content bytes``.  The tag and offsets are the
#: same for every page; EEXTEND writes the vaddr and the content.
_VADDR_AT = len(_EEXTEND_TAG)
_OFFSET_AT = _VADDR_AT + 8
_CONTENT_AT = _OFFSET_AT + 4
_EXTEND_TEMPLATE = np.array(
    [
        np.frombuffer(
            _EEXTEND_TAG + bytes(8) + offset.to_bytes(4, "little") + bytes(_EXTEND_CHUNK),
            dtype=np.uint8,
        )
        for offset in range(0, PAGE_SIZE, _EXTEND_CHUNK)
    ]
)


class MeasurementLog:
    """Running enclave measurement, updated by build-time instructions."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._finalized: bytes | None = None
        self._records = _EXTEND_TEMPLATE.copy()
        # Views of the rows' vaddr field (one little-endian u64 each) and
        # of their 256 content bytes, written in place by eextend.
        self._vaddrs = self._records[:, _VADDR_AT:_OFFSET_AT].view("<u8")
        self._chunks = self._records[:, _CONTENT_AT:]

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

        Each chunk is one EEXTEND record.  The page's 16 records are
        filled in place in this log's record buffer (the vaddr into every
        row, the content in one vectorized copy) and go into the running
        hash in one update, which digests the same bytes.
        """
        if len(page_content) != PAGE_SIZE:
            raise SgxInstructionFault("EEXTEND measures whole pages")
        self._check_open()
        self._vaddrs[:] = vaddr
        self._chunks[:] = np.frombuffer(page_content, dtype=np.uint8).reshape(-1, _EXTEND_CHUNK)
        self._hash.update(self._records)

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
