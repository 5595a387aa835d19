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
from typing import Sequence

import numpy as np

from repro.errors import SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, Tcs

_EXTEND_CHUNK = 256
_EXTENDS = PAGE_SIZE // _EXTEND_CHUNK
_EEXTEND_TAG = len(b"EEXTEND").to_bytes(1, "big") + b"EEXTEND"
_EADD_TAG = len(b"EADD").to_bytes(1, "big") + b"EADD"
#: An EEXTEND record: ``tag || vaddr (8, LE) || offset (4, LE) || 256
#: content bytes``; an EADD record: ``tag || vaddr (8, LE) || SECINFO (64)``.
_VADDR_AT = len(_EEXTEND_TAG)
_OFFSET_AT = _VADDR_AT + 8
_CONTENT_AT = _OFFSET_AT + 4
_EXTEND_LEN = _CONTENT_AT + _EXTEND_CHUNK
_EADD_LEN = len(_EADD_TAG) + 8 + 64
#: One page's records, as EADD then EEXTEND write them: its EADD record
#: and its 16 EEXTEND records.
_PAGE_LEN = _EADD_LEN + _EXTENDS * _EXTEND_LEN

#: The record batch: one row of records per page, for up to
#: ``_BATCH_PAGES`` pages at a time.  The tags and offsets are the same
#: for every page; a run writes each page's vaddr, SECINFO and content
#: into its row and hashes the rows it filled in one update, which
#: digests the same bytes as one update per record.  One batch serves
#: every log: a run fills and hashes it without yielding.
_BATCH_PAGES = 16
_BATCH = np.zeros((_BATCH_PAGES, _PAGE_LEN), dtype=np.uint8)
_BATCH[:, : len(_EADD_TAG)] = np.frombuffer(_EADD_TAG, dtype=np.uint8)
_EXTEND_ROWS = _BATCH[:, _EADD_LEN:].reshape(_BATCH_PAGES, _EXTENDS, _EXTEND_LEN)
_EXTEND_ROWS[:, :, :_VADDR_AT] = np.frombuffer(_EEXTEND_TAG, dtype=np.uint8)
_EXTEND_ROWS[:, :, _OFFSET_AT:_CONTENT_AT] = (
    np.arange(0, PAGE_SIZE, _EXTEND_CHUNK, dtype="<u4").view(np.uint8).reshape(_EXTENDS, 4)
)
_EADD_VADDRS = _BATCH[:, len(_EADD_TAG) : len(_EADD_TAG) + 8].view("<u8")[:, 0]
_EADD_SECINFOS = _BATCH[:, len(_EADD_TAG) + 8 : _EADD_LEN]
_EXTEND_VADDRS = _EXTEND_ROWS[:, :, _VADDR_AT:_OFFSET_AT].view("<u8")[:, :, 0]
_EXTEND_CHUNKS = _EXTEND_ROWS[:, :, _CONTENT_AT:]
#: Where a run gathers the batch's page contents before they are spread
#: into the records.
_PAGES = np.empty((_BATCH_PAGES, PAGE_SIZE), dtype=np.uint8)


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

    def eextend(self, vaddr: int, page_content) -> None:
        """Measure one page's content in 256-byte chunks, as hardware does.

        Each chunk is one EEXTEND record; the page's 16 records are
        filled in the record batch and go into the running hash in one
        update.
        """
        if len(page_content) != PAGE_SIZE:
            raise SgxInstructionFault("EEXTEND measures whole pages")
        self._check_open()
        _EXTEND_VADDRS[0] = vaddr
        _EXTEND_CHUNKS[0] = np.frombuffer(page_content, dtype=np.uint8).reshape(-1, _EXTEND_CHUNK)
        self._hash.update(_EXTEND_ROWS[0])

    def add_run(
        self,
        vaddrs: np.ndarray,
        sec_infos: np.ndarray,
        measured: np.ndarray,
        contents: Sequence[bytes | Tcs],
    ) -> None:
        """Measure a run of EADDs, each followed by its page's EEXTENDs
        where ``measured[i]``, in order.

        ``sec_infos`` holds each page's 64 SECINFO bytes, one row per page.
        A page measures as the content EADD gave it, zero-padded to 4 KB,
        or a TCS as its template: what a freshly added page holds.
        """
        self._check_open()
        for lo in range(0, len(vaddrs), _BATCH_PAGES):
            hi = min(len(vaddrs), lo + _BATCH_PAGES)
            n = hi - lo
            _EADD_VADDRS[:n] = vaddrs[lo:hi]
            _EADD_SECINFOS[:n] = sec_infos[lo:hi]
            extended = measured[lo:hi]
            if extended.any():
                _EXTEND_VADDRS[:n] = vaddrs[lo:hi, None]
                pages = _PAGES[:n]
                pages[:] = 0
                for row, content in zip(pages, contents[lo:hi]):
                    if isinstance(content, Tcs):
                        content = content.to_bytes()
                    if content:
                        row[: len(content)] = np.frombuffer(content, dtype=np.uint8)
                _EXTEND_CHUNKS[:n] = pages.reshape(n, _EXTENDS, _EXTEND_CHUNK)
            if extended.all():
                self._hash.update(_BATCH[:n])
            else:
                keep = np.ones((n, _PAGE_LEN), dtype=bool)
                keep[~extended, _EADD_LEN:] = False
                self._hash.update(_BATCH[:n][keep])

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
