"""The enclave checkpoint: format and sealing.

§IV: "At the beginning of a migration, the control thread will traverse
the entire used memory within the boundary of the enclave and dump the
data ... the source control thread first calculates a hash value of the
checkpoint and then uses a randomly generated migration key (K_migrate)
to encrypt the data together with the hash value."

A checkpoint carries:

* every *readable* REG page (the W+X non-readable pages of SGX v1 cannot
  be dumped — the limitation §IV-B documents — and are listed so the
  target knows they were skipped);
* per-TCS thread state: the tracked CSSA (§IV-C) and the local flag;
* identity metadata binding it to one image (code id + MRENCLAVE).

Sealing is hash-then-encrypt-then-MAC via :mod:`repro.crypto.authenc`,
under K_migrate (random, §IV) or the owner's K_encrypt (§V-C snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.authenc import Envelope, open_view, seal_parts
from repro.crypto.hashes import sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import ChunkError, RestoreError
from repro.serde import SerdeError, pack, unpack

_CKPT_MAGIC = b"ECKPT2\x00"


@dataclass(frozen=True)
class TcsState:
    """Per-thread migration state."""

    index: int
    cssa: int        # the in-enclave tracked CSSA (§IV-C)
    local_flag: int  # FLAG_FREE or FLAG_SPIN at the quiescent point


@dataclass
class EnclaveCheckpoint:
    """A consistent snapshot of one enclave, ready for sealing."""

    image_name: str
    code_id: str
    mrenclave: bytes
    sequence: int
    #: Page content by vaddr; views into the opened plaintext once parsed.
    pages: dict[int, bytes | memoryview] = field(default_factory=dict)
    tcs_states: list[TcsState] = field(default_factory=list)
    skipped_pages: list[int] = field(default_factory=list)
    #: Committed sealed-storage version at checkpoint time (0 when the
    #: enclave has no storage namespace).  Binds the checkpoint to the
    #: storage snapshot migrating alongside it: a target whose imported
    #: namespace is older than this refuses to go live.
    storage_version: int = 0

    @property
    def memory_bytes(self) -> int:
        return sum(len(data) for data in self.pages.values())

    def tcs_state(self, index: int) -> TcsState:
        for state in self.tcs_states:
            if state.index == index:
                return state
        raise RestoreError(f"checkpoint has no TCS state for index {index}")

    def to_bytes(self) -> bytes:
        """Serialize as the compact v2 format: packed header + raw pages."""
        return b"".join(self.parts())

    def parts(self) -> list[bytes]:
        """The v2 format in the pieces :meth:`to_bytes` joins.

        Page *content* travels as raw bytes after the header instead of
        hex inside JSON — half the sealed size and none of the encode
        cost.  The header carries everything else plus a (vaddr, length)
        index locating each page in the tail.  Sealing takes the pieces
        as they are, so the pages are copied once, into the cipher input.
        """
        vaddrs = sorted(self.pages)
        header = pack(
            {
                "image_name": self.image_name,
                "code_id": self.code_id,
                "mrenclave": self.mrenclave,
                "sequence": self.sequence,
                "page_index": [[vaddr, len(self.pages[vaddr])] for vaddr in vaddrs],
                "tcs": [
                    {"index": s.index, "cssa": s.cssa, "flag": s.local_flag}
                    for s in self.tcs_states
                ],
                "skipped": self.skipped_pages,
                "storage_version": self.storage_version,
            }
        )
        parts = [_CKPT_MAGIC, len(header).to_bytes(4, "big"), header]
        parts.extend(self.pages[vaddr] for vaddr in vaddrs)
        return parts

    @staticmethod
    def from_bytes(blob: bytes | memoryview) -> "EnclaveCheckpoint":
        """Parse the v2 format; each page is a view into ``blob``, not a copy.

        A writable buffer is copied once first, so the pages can never see
        it change; an immutable one (bytes, or the read-only view
        :func:`~repro.crypto.authenc.open_view` returns) is used in place.
        """
        if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise SerdeError("not an ECKPT2 checkpoint (bad magic)")
        view = memoryview(blob)
        if not view.readonly:
            view = memoryview(bytes(view))
        cursor = len(_CKPT_MAGIC)
        header_len = int.from_bytes(view[cursor : cursor + 4], "big")
        cursor += 4
        try:
            fields = unpack(bytes(view[cursor : cursor + header_len]))
        except SerdeError as exc:
            raise SerdeError(f"malformed checkpoint header: {exc}") from exc
        cursor += header_len
        pages: dict[int, memoryview] = {}
        for vaddr, n_bytes in fields["page_index"]:
            page = view[cursor : cursor + n_bytes]
            if len(page) != n_bytes:
                raise SerdeError("checkpoint page data truncated")
            pages[int(vaddr)] = page
            cursor += n_bytes
        if cursor != len(view):
            raise SerdeError("checkpoint carries trailing bytes past the page index")
        return EnclaveCheckpoint(
            image_name=fields["image_name"],
            code_id=fields["code_id"],
            mrenclave=fields["mrenclave"],
            sequence=fields["sequence"],
            pages=pages,
            tcs_states=[
                TcsState(t["index"], t["cssa"], t["flag"]) for t in fields["tcs"]
            ],
            skipped_pages=list(fields["skipped"]),
            # Absent in blobs sealed before the storage-handoff step
            # existed; 0 means "no storage constraint", so old captures
            # keep restoring.
            storage_version=int(fields.get("storage_version", 0)),
        )


def seal_checkpoint(
    checkpoint: EnclaveCheckpoint,
    key: SymmetricKey,
    nonce: bytes,
    algorithm: str = "rc4",
) -> Envelope:
    """Seal a checkpoint for transfer over untrusted channels."""
    return seal_parts(key, checkpoint.parts(), nonce, algorithm, aad=b"enclave-ckpt")


def open_checkpoint(key: SymmetricKey, envelope: Envelope) -> EnclaveCheckpoint:
    """Open and validate a sealed checkpoint (raises on any tampering)."""
    return EnclaveCheckpoint.from_bytes(open_view(key, envelope, aad=b"enclave-ckpt"))


# ---------------------------------------------------------------------------
# Chunked, resumable transfer framing
# ---------------------------------------------------------------------------
#
# The sealed envelope is opaque ciphertext; how it crosses the wire is an
# *untrusted transport* concern.  Chunking it lets an interrupted transfer
# resume from the missing chunks instead of restarting from byte zero, and
# the per-chunk frame digest lets the receiver detect line corruption and
# request a retransmit long before the (enclave-internal, authoritative)
# envelope MAC check would fail the whole migration.  None of this is in
# the TCB: a lying reassembler merely produces a blob the enclave rejects.

DEFAULT_CHUNK_BYTES = 16 * 1024

# Binary frame: magic | seq u32 | n_chunks u32 | offset u64 | total u64
#               | sha256(data) | data.  Fixed-offset fields parse with
# memoryview slices, and the payload rides as raw bytes — no JSON, no hex
# doubling, one copy per frame (the join into the contiguous wire bytes).
_FRAME_MAGIC = b"CHNK2\x00"
_FRAME_HEADER_LEN = len(_FRAME_MAGIC) + 4 + 4 + 8 + 8 + 32


def chunk_blob(blob: bytes, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> list[bytes]:
    """Split an opaque blob into self-describing, re-orderable frames."""
    if chunk_bytes <= 0:
        raise ChunkError(f"chunk size must be positive, got {chunk_bytes}")
    view = memoryview(blob)
    total = len(view)
    offsets = range(0, total, chunk_bytes) if total else (0,)
    n_chunks = len(offsets)
    frames = []
    for seq, offset in enumerate(offsets):
        data = view[offset : offset + chunk_bytes]
        frames.append(
            b"".join(
                [
                    _FRAME_MAGIC,
                    seq.to_bytes(4, "big"),
                    n_chunks.to_bytes(4, "big"),
                    offset.to_bytes(8, "big"),
                    total.to_bytes(8, "big"),
                    sha256(data),
                    data,
                ]
            )
        )
    return frames


class ChunkReassembler:
    """Receiver side of the chunked transfer: order- and loss-tolerant.

    Chunks may arrive in any order; duplicates are ignored; a frame whose
    digest does not match (line corruption) raises :class:`ChunkError` so
    the sender retransmits exactly that chunk.  ``missing()`` names what
    a resumed transfer still owes.  Payloads are kept as views into their
    (immutable) frames and copied once, by :meth:`assemble`.
    """

    def __init__(self) -> None:
        self.total: int | None = None
        self.n_chunks: int | None = None
        self._parts: dict[int, memoryview] = {}
        self._offsets: dict[int, int] = {}
        self.duplicates_seen = 0

    def accept(self, frame: bytes) -> bool:
        """Ingest one frame; returns True when it carried new data."""
        if not isinstance(frame, bytes):
            frame = bytes(frame)  # a view must not see the sender's buffer change
        view = memoryview(frame)
        if len(view) < _FRAME_HEADER_LEN or view[: len(_FRAME_MAGIC)] != _FRAME_MAGIC:
            raise ChunkError("malformed chunk frame: bad magic or truncated header")
        cursor = len(_FRAME_MAGIC)
        seq = int.from_bytes(view[cursor : cursor + 4], "big")
        n_chunks = int.from_bytes(view[cursor + 4 : cursor + 8], "big")
        offset = int.from_bytes(view[cursor + 8 : cursor + 16], "big")
        total = int.from_bytes(view[cursor + 16 : cursor + 24], "big")
        digest = bytes(view[cursor + 24 : cursor + 56])
        data = view[cursor + 56 :]
        if sha256(data) != digest:
            raise ChunkError(f"chunk {seq} failed its frame digest (line corruption)")
        if self.total is None:
            self.total, self.n_chunks = total, n_chunks
        elif (total, n_chunks) != (self.total, self.n_chunks):
            raise ChunkError("chunk frame disagrees with the stream geometry")
        if not 0 <= seq < n_chunks:
            raise ChunkError(f"chunk sequence {seq} out of range [0, {n_chunks})")
        if seq in self._parts:
            self.duplicates_seen += 1
            return False
        self._parts[seq] = data
        self._offsets[seq] = offset
        return True

    @property
    def complete(self) -> bool:
        return self.n_chunks is not None and len(self._parts) == self.n_chunks

    def missing(self) -> list[int]:
        """Chunk sequence numbers a resumed transfer still has to send."""
        if self.n_chunks is None:
            return []
        return [seq for seq in range(self.n_chunks) if seq not in self._parts]

    def assemble(self) -> bytes:
        if not self.complete:
            raise ChunkError(f"stream incomplete: missing chunks {self.missing()}")
        cursor = 0
        pieces = []
        for seq in range(self.n_chunks or 0):
            if self._offsets[seq] != cursor:
                raise ChunkError(
                    f"chunk {seq} claims offset {self._offsets[seq]}, expected {cursor}"
                )
            pieces.append(self._parts[seq])
            cursor += len(self._parts[seq])
        blob = b"".join(pieces)
        if self.total is not None and len(blob) != self.total:
            raise ChunkError(
                f"assembled {len(blob)} bytes but the stream declared {self.total}"
            )
        return blob
