"""Authenticated-encryption envelope (encrypt-then-MAC).

This is the wire format for everything security-critical that leaves an
enclave: checkpoints, sealed EPC pages, secure-channel messages.  It
follows the paper's construction — "the source control thread first
calculates a hash value of the checkpoint and then uses a randomly
generated migration key to encrypt the data together with the hash value"
(§IV) — and additionally MACs the ciphertext so tampering is detected
before any decryption state is consumed.

Supported ciphers mirror the paper's evaluation (§VIII-B): RC4 (default),
DES, AES (software), and "AES-NI" (the numpy-batched AES path standing in
for hardware acceleration; same bytes, cheaper modelled cost).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import buffers
from repro.crypto.backend import get_backend
from repro.crypto.hashes import constant_time_equal, sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import CryptoError, IntegrityError
from repro.serde import pack, unpack

CIPHER_NAMES = ("rc4", "des", "aes", "aes-ni", "aes-cbc")

_MAGIC = b"SGXMIGv1"
_DIGEST_LEN = 32
_MAC_LEN = 32

#: Block size of each CTR cipher: these can start decrypting at any
#: block, so :class:`OpenedEnvelope` decrypts them a window at a time.
_CTR_BLOCK = {"des": 8, "aes": 16, "aes-ni": 16}
#: Plaintext bytes an :class:`OpenedEnvelope` decrypts at a time.
OPEN_WINDOW = 1 << 20


@dataclass(frozen=True)
class Envelope:
    """A sealed payload: cipher name, nonce, ciphertext and outer MAC.

    An envelope parsed by :meth:`from_bytes` (every sealed one is) keeps
    its wire form in ``wire``, and its ciphertext is a read-only view into
    it: the bytes exist once, and :meth:`to_bytes` returns them as they
    are.  ``dataclasses.replace`` builds an envelope without a wire form.
    """

    algorithm: str
    nonce: bytes
    ciphertext: bytes | memoryview
    mac: bytes
    wire: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def to_bytes(self) -> bytes:
        """Serialize for network transfer (size counted by the net model)."""
        if self.wire is not None:
            return self.wire
        head = _wire_head(self.algorithm, self.nonce, len(self.ciphertext))
        return b"".join([head, self.ciphertext, self.mac])

    @staticmethod
    def from_bytes(data: bytes) -> "Envelope":
        """Parse one serialized envelope (raises CryptoError when mangled).

        ``data`` must be exactly one envelope: bytes past the MAC are
        refused, so no two wire strings open to the same envelope.  A
        mutable buffer is copied into immutable bytes first; the
        ciphertext is then a view into them, not a copy.
        """
        if not isinstance(data, bytes):
            data = bytes(data)
        if data[: len(_MAGIC)] != _MAGIC:
            raise CryptoError("bad envelope magic")
        try:
            cursor = len(_MAGIC)
            algo_len = data[cursor]
            algorithm = data[cursor + 1 : cursor + 1 + algo_len].decode()
            cursor += 1 + algo_len
            nonce_len = data[cursor]
            nonce = data[cursor + 1 : cursor + 1 + nonce_len]
            cursor += 1 + nonce_len
            ct_end = cursor + 8 + int.from_bytes(data[cursor : cursor + 8], "big")
        except (IndexError, UnicodeDecodeError) as exc:
            raise CryptoError("truncated envelope") from exc
        if ct_end + _MAC_LEN > len(data):
            raise CryptoError("truncated envelope")
        if ct_end + _MAC_LEN < len(data):
            raise CryptoError("envelope carries trailing bytes past its MAC")
        envelope = Envelope(
            algorithm, nonce, memoryview(data)[cursor + 8 : ct_end], data[ct_end:]
        )
        object.__setattr__(envelope, "wire", data)
        return envelope

    @property
    def size(self) -> int:
        """Length of :meth:`to_bytes`, summed from the field lengths."""
        if self.wire is not None:
            return len(self.wire)
        # Field by field as to_bytes lays them out, each behind its
        # length prefix (1, 1 and 8 bytes).
        return (
            len(_MAGIC)
            + 1 + len(self.algorithm.encode())
            + 1 + len(self.nonce)
            + 8 + len(self.ciphertext)
            + len(self.mac)
        )


def _wire_head(algorithm: str, nonce: bytes, ct_len: int) -> bytes:
    """Everything :meth:`Envelope.to_bytes` writes before the ciphertext."""
    algo = algorithm.encode()
    return b"".join(
        [
            _MAGIC,
            len(algo).to_bytes(1, "big"),
            algo,
            len(nonce).to_bytes(1, "big"),
            nonce,
            ct_len.to_bytes(8, "big"),
        ]
    )


def _cipher_process(
    algorithm: str,
    key: bytes,
    nonce: bytes,
    data: bytes | memoryview,
    encrypt: bool,
    out: memoryview | None = None,
    first_counter: int = 0,
) -> bytes | memoryview:
    """Run ``algorithm`` over all of ``data`` in one backend call.

    The stream ciphers write into ``out`` (``len(data)`` bytes; it may
    be ``data`` itself, which is then encrypted in place), or into a
    fresh buffer left uninitialized, because the cipher writes every
    byte.  A CTR cipher starts at block ``first_counter``.  AES-CBC pads,
    so its backend returns its own output.
    """
    b = get_backend()
    if algorithm == "aes-cbc":
        key16 = sha256(key)[:16]
        iv = sha256(nonce)[:16]
        if encrypt:
            return b.aes_cbc_encrypt(key16, iv, bytes(data))
        return b.aes_cbc_decrypt(key16, iv, data)
    if algorithm not in ("rc4", *_CTR_BLOCK):
        raise CryptoError(f"unknown cipher algorithm: {algorithm!r}")
    if out is None:
        out = memoryview(buffers.fresh(len(data)))
    if algorithm == "rc4":
        # RC4 has no nonce input; bind the nonce into the stream key.
        return b.rc4(sha256(key + nonce), data, out=out)
    if algorithm == "des":
        return b.des_ctr(sha256(key)[:8], nonce[:4], data, first_counter, out=out)
    return b.aes_ctr(sha256(key)[:16], nonce[:8], data, first_counter, out=out)


def _envelope_mac(
    mac_key: bytes, algorithm: str, nonce: bytes, aad: bytes, ciphertext: bytes
) -> bytes:
    """HMAC over ``algorithm || nonce || aad || ciphertext``, fed piece by
    piece so a multi-MB ciphertext is never concatenated first."""
    mac = hmac.new(mac_key, algorithm.encode(), hashlib.sha256)
    mac.update(nonce)
    mac.update(aad)
    mac.update(ciphertext)
    return mac.digest()


def sealing_buffer(parts: Sequence[bytes]) -> np.ndarray:
    """The concatenation of ``parts`` behind its SHA-256 digest, in one
    fresh buffer (see :mod:`repro.buffers`): what :func:`seal_buffer`
    encrypts.  This is the one copy the parts take on their way to the
    cipher; once it is made, the caller may let them go.
    """
    inner = buffers.fresh(_DIGEST_LEN + sum(map(len, parts)))
    view = memoryview(inner)
    at = _DIGEST_LEN
    for part in parts:
        view[at : at + len(part)] = part
        at += len(part)
    view[:_DIGEST_LEN] = hashlib.sha256(view[_DIGEST_LEN:]).digest()
    return inner


def seal_buffer(
    key: SymmetricKey,
    inner: np.ndarray,
    nonce: bytes,
    algorithm: str = "rc4",
    aad: bytes = b"",
) -> Envelope:
    """Seal a :func:`sealing_buffer` under ``key``, taking it over.

    The inner layout is ``sha256(plaintext) || plaintext`` (the paper's
    hash-then-encrypt), the whole of which is encrypted: in place by the
    stream ciphers, so ``inner`` then holds the ciphertext, and into the
    backend's own output by AES-CBC, which pads.  The outer MAC covers
    ``algorithm || nonce || aad || ciphertext``.  The wire form is joined
    once, around the ciphertext, and the returned envelope is parsed
    from it (see :meth:`Envelope.from_bytes`).
    """
    if algorithm not in CIPHER_NAMES:
        raise CryptoError(f"unknown cipher algorithm: {algorithm!r}")
    if len(nonce) < 8:
        raise CryptoError("nonce must be at least 8 bytes")
    enc_key = key.derive("enc").material
    mac_key = key.derive("mac").material
    view = memoryview(inner)
    ciphertext = _cipher_process(algorithm, enc_key, nonce, view, encrypt=True, out=view)
    mac = _envelope_mac(mac_key, algorithm, nonce, aad, ciphertext)
    return Envelope.from_bytes(
        b"".join([_wire_head(algorithm, nonce, len(ciphertext)), ciphertext, mac])
    )


def seal_parts(
    key: SymmetricKey,
    parts: Sequence[bytes],
    nonce: bytes,
    algorithm: str = "rc4",
    aad: bytes = b"",
) -> Envelope:
    """Seal the concatenation of ``parts`` under ``key`` (see
    :func:`seal_buffer`)."""
    if algorithm not in CIPHER_NAMES:
        raise CryptoError(f"unknown cipher algorithm: {algorithm!r}")
    return seal_buffer(key, sealing_buffer(parts), nonce, algorithm, aad)


def seal_envelope(
    key: SymmetricKey,
    plaintext: bytes,
    nonce: bytes,
    algorithm: str = "rc4",
    aad: bytes = b"",
) -> Envelope:
    """Seal one ``plaintext`` under ``key`` (see :func:`seal_parts`)."""
    return seal_parts(key, (plaintext,), nonce, algorithm, aad)


def open_view(key: SymmetricKey, envelope: Envelope, aad: bytes = b"") -> memoryview:
    """Open an envelope; raises :class:`IntegrityError` on any mismatch.

    Returns the plaintext as a read-only view into the decrypted buffer,
    which nothing else holds, so a large payload is not copied again
    after decryption.
    """
    enc_key = key.derive("enc").material
    mac_key = key.derive("mac").material
    expected_mac = _envelope_mac(
        mac_key, envelope.algorithm, envelope.nonce, aad, envelope.ciphertext
    )
    if not constant_time_equal(expected_mac, envelope.mac):
        raise IntegrityError("envelope MAC mismatch")
    try:
        inner = _cipher_process(
            envelope.algorithm, enc_key, envelope.nonce, envelope.ciphertext, encrypt=False
        )
    except CryptoError as exc:
        raise IntegrityError(f"envelope decryption failed: {exc}") from exc
    view = memoryview(inner).toreadonly()
    digest, plaintext = view[:_DIGEST_LEN], view[_DIGEST_LEN:]
    if not constant_time_equal(digest, sha256(plaintext)):
        raise IntegrityError("inner checkpoint hash mismatch")
    return plaintext


class OpenedEnvelope:
    """An envelope whose MAC and inner digest are checked, its plaintext
    decrypted again on demand, a window at a time.

    Construction checks the MAC over the ciphertext, then makes pass
    one: it decrypts the body ``window`` bytes at a time into one reused
    scratch buffer, hashing as it goes, and checks the inner digest.  It
    raises :class:`IntegrityError` where :func:`open_view` does.
    :meth:`read` then decrypts any plaintext span again.  A CTR cipher
    starts a span at its block counter; RC4 and AES-CBC cannot start
    mid-stream, so they are decrypted once, whole, and :meth:`read`
    returns views of that.
    """

    def __init__(
        self, key: SymmetricKey, envelope: Envelope, aad: bytes = b"", window: int = OPEN_WINDOW
    ) -> None:
        self._key = key.derive("enc").material
        expected_mac = _envelope_mac(
            key.derive("mac").material, envelope.algorithm, envelope.nonce, aad,
            envelope.ciphertext,
        )
        if not constant_time_equal(expected_mac, envelope.mac):
            raise IntegrityError("envelope MAC mismatch")
        self._envelope = envelope
        self._block = _CTR_BLOCK.get(envelope.algorithm)
        if self._block is not None:
            # A window, and the head of the block it starts in.
            n = min(window, len(envelope.ciphertext)) + self._block
            self._scratch = memoryview(buffers.fresh(n))
        else:
            try:
                inner = _cipher_process(
                    envelope.algorithm, self._key, envelope.nonce, envelope.ciphertext,
                    encrypt=False,
                )
            except CryptoError as exc:
                raise IntegrityError(f"envelope decryption failed: {exc}") from exc
            self._inner = memoryview(inner).toreadonly()
        inner_len = len(envelope.ciphertext) if self._block else len(self._inner)
        #: Plaintext length: the body behind the inner digest.
        self.size = max(0, inner_len - _DIGEST_LEN)
        digest = bytes(self._decrypt(0, min(_DIGEST_LEN, inner_len)))
        hasher = hashlib.sha256()
        for offset in range(0, self.size, window):
            hasher.update(self.read(offset, min(window, self.size - offset)))
        if not constant_time_equal(digest, hasher.digest()):
            raise IntegrityError("inner checkpoint hash mismatch")

    def read(self, offset: int, n: int) -> memoryview:
        """Plaintext bytes ``[offset, offset + n)``, as a read-only view
        that the next :meth:`read` may overwrite."""
        return self._decrypt(_DIGEST_LEN + offset, n)

    def _decrypt(self, at: int, n: int) -> memoryview:
        """Inner bytes ``[at, at + n)``."""
        if self._block is None:
            return self._inner[at : at + n]
        skip = at % self._block  # from the start of the block holding ``at``
        if len(self._scratch) < skip + n:  # one span longer than a window
            self._scratch = memoryview(buffers.fresh(skip + n))
        out = self._scratch[: skip + n]
        envelope = self._envelope
        _cipher_process(
            envelope.algorithm, self._key, envelope.nonce,
            envelope.ciphertext[at - skip : at + n], encrypt=False, out=out,
            first_counter=at // self._block,
        )
        return out[skip:].toreadonly()


def open_envelope(key: SymmetricKey, envelope: Envelope, aad: bytes = b"") -> bytes:
    """Open an envelope into bytes (see :func:`open_view`)."""
    return bytes(open_view(key, envelope, aad))


def seal_value(key: SymmetricKey, value, nonce: bytes, aad: bytes) -> bytes:
    """Seal one :mod:`repro.serde` value into an AES envelope's wire form.

    This is the SDK's one sealed-message format: every message an enclave
    (or its owner) seals for a peer or for its own disk is ``pack(value)``
    under ``key``, bound to the ``aad`` that names what it is for
    (docs/PROTOCOL.md lists each one).
    """
    return seal_envelope(key, pack(value), nonce, "aes", aad=aad).to_bytes()


def open_value(key: SymmetricKey, blob: bytes, aad: bytes):
    """Open a :func:`seal_value` blob back into its value.

    Raises :class:`IntegrityError` when the MAC, the inner digest or the
    ``aad`` does not match, and :class:`CryptoError` when ``blob`` is not
    one envelope.
    """
    return unpack(open_envelope(key, Envelope.from_bytes(blob), aad=aad))
