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
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.backend import CryptoBackend, get_backend
from repro.crypto.hashes import constant_time_equal, sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import CryptoError, IntegrityError

CIPHER_NAMES = ("rc4", "des", "aes", "aes-ni", "aes-cbc")

_MAGIC = b"SGXMIGv1"
_DIGEST_LEN = 32
_MAC_LEN = 32


@dataclass(frozen=True)
class Envelope:
    """A sealed payload: cipher name, nonce, ciphertext and outer MAC."""

    algorithm: str
    nonce: bytes
    ciphertext: bytes
    mac: bytes

    def to_bytes(self) -> bytes:
        """Serialize for network transfer (size counted by the net model)."""
        algo = self.algorithm.encode()
        return b"".join(
            [
                _MAGIC,
                len(algo).to_bytes(1, "big"),
                algo,
                len(self.nonce).to_bytes(1, "big"),
                self.nonce,
                len(self.ciphertext).to_bytes(8, "big"),
                self.ciphertext,
                self.mac,
            ]
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Envelope":
        """Parse a serialized envelope (raises CryptoError when mangled)."""
        if data[: len(_MAGIC)] != _MAGIC:
            raise CryptoError("bad envelope magic")
        offset = len(_MAGIC)
        algo_len = data[offset]
        offset += 1
        algorithm = data[offset : offset + algo_len].decode()
        offset += algo_len
        nonce_len = data[offset]
        offset += 1
        nonce = data[offset : offset + nonce_len]
        offset += nonce_len
        ct_len = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        ciphertext = data[offset : offset + ct_len]
        offset += ct_len
        mac = data[offset : offset + _MAC_LEN]
        if len(mac) != _MAC_LEN:
            raise CryptoError("truncated envelope")
        return Envelope(algorithm, nonce, ciphertext, mac)

    @property
    def size(self) -> int:
        """Length of :meth:`to_bytes`, summed from the field lengths."""
        # Field by field as to_bytes lays them out, each behind its
        # length prefix (1, 1 and 8 bytes).
        return (
            len(_MAGIC)
            + 1 + len(self.algorithm.encode())
            + 1 + len(self.nonce)
            + 8 + len(self.ciphertext)
            + len(self.mac)
        )


def _cipher_process(
    algorithm: str,
    key: bytes,
    nonce: bytes,
    data: bytes,
    encrypt: bool,
    backend: CryptoBackend | None = None,
) -> bytes:
    b = backend if backend is not None else get_backend()
    if algorithm == "rc4":
        # RC4 has no nonce input; bind the nonce into the stream key.
        return b.rc4(sha256(key + nonce), data)
    if algorithm == "des":
        return b.des_ctr(sha256(key)[:8], nonce[:4], data)
    if algorithm in ("aes", "aes-ni"):
        return b.aes_ctr(sha256(key)[:16], nonce[:8], data)
    if algorithm == "aes-cbc":
        key16 = sha256(key)[:16]
        iv = sha256(nonce)[:16]
        return b.aes_cbc_encrypt(key16, iv, data) if encrypt else b.aes_cbc_decrypt(key16, iv, data)
    raise CryptoError(f"unknown cipher algorithm: {algorithm!r}")


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


def seal_parts(
    key: SymmetricKey,
    parts: Sequence[bytes],
    nonce: bytes,
    algorithm: str = "rc4",
    aad: bytes = b"",
) -> Envelope:
    """Seal the concatenation of ``parts`` under ``key``.

    The inner layout is ``sha256(plaintext) || plaintext`` (the paper's
    hash-then-encrypt), the whole of which is encrypted; the outer MAC
    covers ``algorithm || nonce || aad || ciphertext``.  The parts are
    hashed one by one and joined once, behind their digest, so a large
    plaintext is copied once on its way to the cipher.
    """
    if algorithm not in CIPHER_NAMES:
        raise CryptoError(f"unknown cipher algorithm: {algorithm!r}")
    if len(nonce) < 8:
        raise CryptoError("nonce must be at least 8 bytes")
    enc_key = key.derive("enc").material
    mac_key = key.derive("mac").material
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    inner = b"".join([digest.digest(), *parts])
    ciphertext = _cipher_process(algorithm, enc_key, nonce, inner, encrypt=True)
    return Envelope(
        algorithm, nonce, ciphertext, _envelope_mac(mac_key, algorithm, nonce, aad, ciphertext)
    )


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
    so a large payload is not copied again after decryption.
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
    view = memoryview(inner)
    digest, plaintext = view[:_DIGEST_LEN], view[_DIGEST_LEN:]
    if not constant_time_equal(digest, sha256(plaintext)):
        raise IntegrityError("inner checkpoint hash mismatch")
    return plaintext


def open_envelope(key: SymmetricKey, envelope: Envelope, aad: bytes = b"") -> bytes:
    """Open an envelope into bytes (see :func:`open_view`)."""
    return bytes(open_view(key, envelope, aad))
