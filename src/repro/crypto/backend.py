"""Pluggable crypto backends: a pure-Python reference oracle and a fast path.

Every symmetric-cipher operation on the checkpoint hot path (envelope
sealing, MEE page sealing, the SGX-v2 migratable-page stream, the
``cr4``/``mcrypt`` enclave apps) and every private-key operation of the
attested channel (Diffie-Hellman steps, RSA signatures) goes through one
:class:`CryptoBackend`.  Two implementations exist:

* ``reference`` — this repository's from-scratch ciphers, invoked exactly
  as the original call sites did (fresh cipher object per operation), and
  builtin ``pow`` for every exponentiation.  It is the correctness oracle:
  slow, obvious, test-vector-verified.
* ``fast`` — byte-identical output, produced cheaply: cipher objects are
  cached per key instead of rebuilt per page, and when the optional
  ``cryptography`` package is importable the AES-CTR / AES-CBC / RC4
  work, the DH exponentiations and the RSA signatures (PKCS#1 v1.5 over
  the bare digest, which is exactly this repository's padding) are
  delegated to OpenSSL.  Without ``cryptography`` the fast backend still
  wins by amortizing key schedules, batching XORs and signing with the
  CRT.

The stream ciphers (``rc4``, ``des_ctr``, ``aes_ctr``) take an optional
``out`` buffer of ``len(data)`` bytes and write their output into it
instead of allocating a new ``bytes``: OpenSSL fills it in place
(``update_into``), the other paths copy their result in.  A multi-MB
checkpoint is then encrypted without the second buffer and the page
faults that ``update()``'s allocating return costs.

The backend changes *wall-clock* cost only.  Virtual (modelled) time is
charged by :class:`repro.sim.costs.CostModel` per algorithm and is
identical under both backends — as are all wire bytes, journal entries
and enclave state, which ``tests/crypto/test_backend_oracle.py`` and
``tests/integration/test_backend_differential.py`` prove.

Selection: ``REPRO_CRYPTO_BACKEND=reference|fast`` (default ``fast``),
or programmatically via :func:`set_backend` / :func:`use_backend`.
"""

from __future__ import annotations

import os
from collections.abc import Hashable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Union

from repro.crypto.aes import Aes128
from repro.crypto.des import Des
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_process, pkcs7_pad, pkcs7_unpad
from repro.crypto.rc4 import Rc4
from repro.errors import CryptoError

if TYPE_CHECKING:
    from repro.crypto.rsa import RsaPrivateKey

#: A bytes-like cipher input or output (``bytes``, ``bytearray``, ``memoryview``).
Buffer = Union[bytes, bytearray, memoryview]

BACKEND_ENV = "REPRO_CRYPTO_BACKEND"
BACKEND_NAMES = ("reference", "fast")

_COUNTER_LIMIT = 1 << 64

try:  # optional accelerator; never a hard dependency
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes as _cg_modes

    try:  # moved to `decrepit` in cryptography >= 43
        from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4 as _CgArc4
    except ImportError:  # pragma: no cover - older cryptography layouts
        _CgArc4 = getattr(algorithms, "ARC4", None)
    try:  # PKCS#1 v1.5 without DigestInfo; older releases lack it
        from cryptography.hazmat.primitives.asymmetric.utils import NoDigestInfo as _CgNoDigestInfo
    except ImportError:  # pragma: no cover - older cryptography releases
        _CgNoDigestInfo = None
    from cryptography.exceptions import UnsupportedAlgorithm as _CgUnsupported
    from cryptography.hazmat.primitives.asymmetric import dh as _cg_dh, rsa as _cg_rsa
    from cryptography.hazmat.primitives.asymmetric.padding import PKCS1v15 as _CgPkcs1v15

    _HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover - stdlib-only environments
    Cipher = algorithms = _cg_modes = _CgArc4 = _CgNoDigestInfo = None
    _CgUnsupported = _cg_dh = _cg_rsa = _CgPkcs1v15 = None
    _HAVE_CRYPTOGRAPHY = False


class CryptoBackend:
    """Uniform cipher, exponentiation and signing interface the hot paths call into.

    All methods are deterministic functions of their inputs; the two
    implementations below must agree byte-for-byte on every one.
    """

    name = "abstract"

    # RC4 has no nonce; callers bind context into the stream key themselves.
    # With ``out`` (a writable buffer of ``len(data)`` bytes) the three
    # stream ciphers write their output there and return it.
    def rc4(self, stream_key: bytes, data: bytes, out: Buffer | None = None) -> Buffer:
        raise NotImplementedError

    def des_ctr(
        self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        raise NotImplementedError

    def aes_ctr(
        self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        raise NotImplementedError

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def dh_modexp(self, base: int, exponent: int, prime: int) -> int:
        """``base ** exponent mod prime`` in a safe-prime DH group."""
        raise NotImplementedError

    def rsa_sign(self, key: RsaPrivateKey, digest: bytes) -> bytes:
        """The RSA signature of the padded SHA-256 ``digest`` under ``key``."""
        raise NotImplementedError


class ReferenceBackend(CryptoBackend):
    """The original pure-Python call sites, verbatim: the oracle."""

    name = "reference"

    def rc4(self, stream_key: bytes, data: bytes, out: Buffer | None = None) -> Buffer:
        return _into(out, Rc4(stream_key).process(data))

    def des_ctr(
        self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        return _into(out, ctr_process(Des(key8), nonce, data, first_counter))

    def aes_ctr(
        self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        return _into(out, ctr_process(Aes128(key16), nonce, data, first_counter))

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        return cbc_encrypt(Aes128(key16), iv, data)

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        return cbc_decrypt(Aes128(key16), iv, data)

    def dh_modexp(self, base: int, exponent: int, prime: int) -> int:
        return pow(base, exponent, prime)

    def rsa_sign(self, key: RsaPrivateKey, digest: bytes) -> bytes:
        m = _padded(key, digest)
        return pow(m, key.d, key.n).to_bytes(key.modulus_bytes, "big")


class _KeyedCache:
    """A small bounded cache of cipher and key objects keyed by key material.

    Key schedules (AES round keys, DES PC-1/PC-2 subkeys, OpenSSL's RSA
    key check) dominate the per-operation cost; the hot paths reuse a
    handful of long-lived keys, so a tiny cache removes the rebuild
    entirely.
    """

    def __init__(self, factory, max_entries: int = 128) -> None:
        self._factory = factory
        self._max = max_entries
        self._entries: dict[Hashable, object] = {}

    def get(self, key: Hashable):
        cipher = self._entries.get(key)
        if cipher is None:
            if len(self._entries) >= self._max:
                self._entries.pop(next(iter(self._entries)))
            cipher = self._factory(key)
            self._entries[key] = cipher
        return cipher


class FastBackend(CryptoBackend):
    """Byte-identical to the reference, built for throughput.

    AES-CTR equivalence with OpenSSL: the reference builds counter blocks
    ``nonce || big-endian-64(first_counter + i)`` for an 8-byte nonce, and
    OpenSSL's CTR mode increments the whole 128-bit block — identical as
    long as the low 64 bits never wrap, which :meth:`aes_ctr` checks and
    otherwise falls back to the reference construction.

    DH equivalence with OpenSSL: a DH exchange with private value
    ``exponent`` and peer value ``base`` computes exactly
    ``base ** exponent mod prime``.  OpenSSL aborts (it does not raise) on
    a result of 1 or ``prime - 1``; a base in ``[2, prime - 2]`` and a
    nonzero exponent below the subgroup order ``(prime - 1) / 2`` never
    produce either, so only such inputs are delegated.

    RSA equivalence with OpenSSL: PKCS#1 v1.5 signing is deterministic,
    and without a DigestInfo its encoded block is ``00 01 FF..FF 00 ||
    digest``, this repository's padding.  OpenSSL's key object is built
    (and checked) once per key; a key OpenSSL refuses, or any key when
    ``cryptography`` or its ``NoDigestInfo`` is missing, is signed with
    the CRT here instead.
    """

    name = "fast"

    def __init__(self) -> None:
        self._aes = _KeyedCache(Aes128)
        self._des = _KeyedCache(Des)
        self._arc4_broken = not _HAVE_CRYPTOGRAPHY or _CgArc4 is None
        self._dh_groups: dict[int, object] = {}
        self._rsa = _KeyedCache(_openssl_rsa_key)

    # ---------------------------------------------------------------- rc4
    def rc4(self, stream_key: bytes, data: bytes, out: Buffer | None = None) -> Buffer:
        if not self._arc4_broken and len(stream_key) * 8 in _CgArc4.key_sizes:
            try:
                encryptor = Cipher(_CgArc4(stream_key), mode=None).encryptor()
                return _update(encryptor, data, out)
            except _CgUnsupported:
                # Some OpenSSL builds compile RC4 out; remember and fall back.
                self._arc4_broken = True
        stream = Rc4(stream_key).keystream(len(data))
        return _into(out, _xor(data, stream))

    # ---------------------------------------------------------------- des
    def des_ctr(
        self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        # OpenSSL has no single-DES CTR; amortize the key schedule instead.
        return _into(out, ctr_process(self._des.get(key8), nonce, data, first_counter))

    # ---------------------------------------------------------------- aes
    def aes_ctr(
        self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0,
        out: Buffer | None = None,
    ) -> Buffer:
        n_blocks = (len(data) + 15) // 16
        if (
            _HAVE_CRYPTOGRAPHY
            and len(nonce) == 8
            and 0 <= first_counter
            and first_counter + n_blocks < _COUNTER_LIMIT
        ):
            initial = nonce + first_counter.to_bytes(8, "big")
            encryptor = Cipher(algorithms.AES(key16), _cg_modes.CTR(initial)).encryptor()
            return _update(encryptor, data, out)
        return _into(out, ctr_process(self._aes.get(key16), nonce, data, first_counter))

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY:
            padded = pkcs7_pad(data, 16)
            encryptor = Cipher(algorithms.AES(key16), _cg_modes.CBC(iv)).encryptor()
            return encryptor.update(padded) + encryptor.finalize()
        return cbc_encrypt(self._aes.get(key16), iv, data)

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY:
            if len(data) % 16 != 0:
                raise CryptoError("ciphertext length is not a multiple of block size")
            decryptor = Cipher(algorithms.AES(key16), _cg_modes.CBC(iv)).decryptor()
            padded = decryptor.update(data) + decryptor.finalize()
            return pkcs7_unpad(padded, 16)
        return cbc_decrypt(self._aes.get(key16), iv, data)

    # ---------------------------------------------------------------- public key
    def dh_modexp(self, base: int, exponent: int, prime: int) -> int:
        if (
            _HAVE_CRYPTOGRAPHY
            and 2 <= base <= prime - 2
            and 0 < exponent
            and exponent.bit_length() < prime.bit_length() - 1
        ):
            group = self._dh_groups.get(prime)
            if group is None:
                group = self._dh_groups[prime] = _cg_dh.DHParameterNumbers(prime, 2)
            try:
                peer = _cg_dh.DHPublicNumbers(base, group)
                # OpenSSL never checks a private key's public half against
                # its exponent, so the peer value stands in for it.
                private = _cg_dh.DHPrivateNumbers(exponent, peer).private_key()
                return int.from_bytes(private.exchange(peer.public_key()), "big")
            except ValueError:
                pass  # OpenSSL refused this input; builtin pow is exact
        return pow(base, exponent, prime)

    def rsa_sign(self, key: RsaPrivateKey, digest: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY and _CgNoDigestInfo is not None:
            private = self._rsa.get(key)
            if private:
                return private.sign(digest, _CgPkcs1v15(), _CgNoDigestInfo())
        m = _padded(key, digest)
        crt = key.crt_params()
        if crt is None:
            s = pow(m, key.d, key.n)
        else:
            p, q, dp, dq, qinv = crt
            m_q = pow(m, dq, q)
            s = m_q + q * (qinv * (pow(m, dp, p) - m_q) % p)
        return s.to_bytes(key.modulus_bytes, "big")


def _openssl_rsa_key(key: RsaPrivateKey):
    """OpenSSL's private key for ``key``; ``False`` when it has no known
    factors or OpenSSL refuses it (both are signed without OpenSSL).

    ``False``, not ``None``, so that :class:`_KeyedCache` keeps the
    verdict and OpenSSL's key check runs once per key either way.
    """
    crt = key.crt_params()
    if crt is None:
        return False
    p, q, dp, dq, qinv = crt
    public = _cg_rsa.RSAPublicNumbers(key.e, key.n)
    try:
        return _cg_rsa.RSAPrivateNumbers(p, q, key.d, dp, dq, qinv, public).private_key()
    except ValueError:
        return False


def _padded(key: RsaPrivateKey, digest: bytes) -> int:
    """The encoded block ``key`` exponentiates (defined in ``crypto/rsa.py``)."""
    from repro.crypto.rsa import _pad_digest  # rsa.py imports this module

    return _pad_digest(digest, key.modulus_bytes)


def _update(encryptor, data: Buffer, out: Buffer | None) -> Buffer:
    """One OpenSSL stream-cipher pass: into ``out`` when given.

    Stream modes write exactly ``len(data)`` bytes, and ``update_into``
    fills the caller's buffer without allocating a second one.
    """
    if out is None:
        return encryptor.update(data)
    try:
        encryptor.update_into(data, out)
    except ValueError:  # older releases want block-size slack in ``out``
        out[:] = encryptor.update(data)
    return out


def _into(out: Buffer | None, result: bytes) -> Buffer:
    """``result``, copied into ``out`` when the caller passed one."""
    if out is None:
        return result
    out[:] = result
    return out


def _xor(data: bytes, stream: bytes) -> bytes:
    """Batched XOR of two equal-length byte strings."""
    if not data:
        return b""
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


# ---------------------------------------------------------------- registry
_ACTIVE: CryptoBackend | None = None


def make_backend(name: str) -> CryptoBackend:
    """Construct a fresh backend by name."""
    if name == "reference":
        return ReferenceBackend()
    if name == "fast":
        return FastBackend()
    raise CryptoError(f"unknown crypto backend: {name!r} (expected one of {BACKEND_NAMES})")


def get_backend() -> CryptoBackend:
    """The active backend; first use reads ``REPRO_CRYPTO_BACKEND``."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = make_backend(os.environ.get(BACKEND_ENV, "fast"))
    return _ACTIVE


def set_backend(backend: CryptoBackend | str | None) -> CryptoBackend | None:
    """Install a backend (by instance or name); returns the previous one.

    ``None`` resets to unselected so the next :func:`get_backend` call
    re-reads the environment.
    """
    global _ACTIVE
    previous = _ACTIVE
    if backend is None:
        _ACTIVE = None
    elif isinstance(backend, str):
        _ACTIVE = make_backend(backend)
    else:
        _ACTIVE = backend
    return previous


@contextmanager
def use_backend(backend: CryptoBackend | str) -> Iterator[CryptoBackend]:
    """Temporarily switch backends (tests and the differential harness)."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
