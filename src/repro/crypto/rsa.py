"""RSA signatures for attestation and channel authentication.

Used by: the Quoting Enclave (quote signatures), the attestation service
(verification-report signatures), the enclave image keypair of §V-B
("We put a pair of keys into the enclave image. The public key is in
plaintext while the private key is in ciphertext."), and enclave owners.

Key generation uses Miller-Rabin with 1024-bit moduli — small by modern
deployment standards but honest in structure.  Long-lived keys are made
once per role, as in a real deployment (:func:`role_keypair`): the IAS
and vendor keys, one platform attestation key per machine and one image
key per image are the same in every simulated world, so a process pays
for each at most once.  Signing is full-block EMSA-style padding over a
SHA-256 digest (PKCS#1 v1.5 without a DigestInfo); the active crypto
backend signs, on OpenSSL or with the CRT factors kept in
:data:`_CRT_PARAMS`.  Verification stays here, in Python.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd

from repro.crypto.backend import get_backend
from repro.crypto.hashes import sha256
from repro.errors import SignatureError
from repro.sim.rng import DeterministicRng

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)


def _is_probable_prime(n: int, rng: DeterministicRng, rounds: int = 24) -> bool:
    """Miller-Rabin probabilistic primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: DeterministicRng) -> int:
    """Generate a random probable prime with the top two bits set."""
    while True:
        candidate = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _pad_digest(digest: bytes, modulus_bytes: int) -> int:
    """EMSA-style padding: 0x00 0x01 FF..FF 0x00 digest."""
    padding_len = modulus_bytes - len(digest) - 3
    if padding_len < 8:
        raise ValueError("modulus too small for padded digest")
    padded = b"\x00\x01" + b"\xff" * padding_len + b"\x00" + digest
    return int.from_bytes(padded, "big")


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e); verifies signatures."""

    n: int
    e: int

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        if len(signature) != self.modulus_bytes:
            raise SignatureError("signature length mismatch")
        representative = int.from_bytes(signature, "big")
        if representative >= self.n:
            # RSAVP1 step 1: reducing it mod n would accept s + n as well.
            raise SignatureError("signature representative out of range")
        expected = _pad_digest(sha256(message), self.modulus_bytes)
        recovered = pow(representative, self.e, self.n)
        if recovered != expected:
            raise SignatureError("RSA signature verification failed")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def fingerprint(self) -> bytes:
        """Stable identifier for this key (hash of n || e)."""
        return sha256(self.n.to_bytes(self.modulus_bytes, "big") + self.e.to_bytes(4, "big"))


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; signs SHA-256 digests."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        return get_backend().rsa_sign(self, sha256(message))

    def crt_params(self) -> tuple[int, int, int, int, int] | None:
        """``(p, q, d mod p-1, d mod q-1, q^-1 mod p)``, or ``None``.

        Read from a process-wide memo keyed by ``(n, d)``: key generation
        fills it, and a key rebuilt from bare ``(n, e, d)`` (the image key
        an enclave keeps in memory) has its factors recovered once.  The
        key object itself stays ``(n, e, d)``.
        """
        slot = (self.n, self.d)
        if slot not in _CRT_PARAMS:
            factors = _recover_factors(self.n, self.e, self.d)
            _CRT_PARAMS[slot] = factors and _crt_from_factors(*factors, self.d)
        return _CRT_PARAMS[slot]


#: CRT parameters by ``(n, d)``; ``None`` marks a key that would not factor.
_CRT_PARAMS: dict[tuple[int, int], tuple[int, int, int, int, int] | None] = {}


def _crt_from_factors(p: int, q: int, d: int) -> tuple[int, int, int, int, int]:
    return p, q, d % (p - 1), d % (q - 1), pow(q, -1, p)


def _recover_factors(n: int, e: int, d: int) -> tuple[int, int] | None:
    """Factor ``n`` from a matching exponent pair (Boneh's method).

    ``e*d - 1`` is a multiple of the group exponent, so for most bases a
    square root of 1 other than +-1 turns up while halving it; that root
    shares exactly one prime with ``n``.
    """
    k = e * d - 1
    if k <= 0:
        return None
    twos = (k & -k).bit_length() - 1
    odd = k >> twos
    for base in _SMALL_PRIMES:
        x = pow(base, odd, n)
        for _ in range(twos):
            if x in (1, n - 1):
                break
            y = x * x % n
            if y == 1:
                p = gcd(x - 1, n)
                return p, n // p
            x = y
    return None


#: Keygen memo, keyed by the generator's exact state: a hit returns the key
#: a miss would have generated and leaves the generator where a miss would
#: have, so a repeat costs no later draw.  Role keys (:func:`role_keypair`)
#: start from a generator named after the role, so every world after the
#: first gets its IAS, vendor, platform and image keys from here.
#: States are stored packed (2.5 KB, not the 25 KB of a tuple of ints).
_KEYGEN_CACHE: dict[tuple[tuple, int], tuple[RsaPrivateKey, tuple]] = {}


def _pack_state(state: tuple) -> tuple:
    version, internal, gauss = state
    return version, array("I", internal).tobytes(), gauss


def _unpack_state(packed: tuple) -> tuple:
    version, internal, gauss = packed
    return version, tuple(array("I", internal)), gauss


def generate_rsa_keypair(rng: DeterministicRng, bits: int = 1024) -> RsaPrivateKey:
    """Generate an RSA keypair with modulus of roughly ``bits`` bits."""
    cache_key = (_pack_state(rng.getstate()), bits)
    hit = _KEYGEN_CACHE.get(cache_key)
    if hit is not None:
        keypair, after = hit
        rng.setstate(_unpack_state(after))
        return keypair
    keypair = _generate_rsa_keypair_uncached(rng, bits)
    _KEYGEN_CACHE[cache_key] = (keypair, _pack_state(rng.getstate()))
    return keypair


def role_keypair(role: str) -> RsaPrivateKey:
    """The long-lived keypair of ``role``, the same in every world.

    Roles name what a key is provisioned for, not the run that asked for
    it: ``"ias"``, ``"vendor"``, ``"platform/<machine>"``,
    ``"image/<image>"``.  Per-run randomness (nonces, DH halves, sealing
    keys) stays on each world's seeded generators.
    """
    return generate_rsa_keypair(DeterministicRng(f"role-key/{role}"))


def _generate_rsa_keypair_uncached(rng: DeterministicRng, bits: int) -> RsaPrivateKey:
    e = 65537
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        key = RsaPrivateKey(n=p * q, e=e, d=pow(e, -1, phi))
        _CRT_PARAMS[(key.n, key.d)] = _crt_from_factors(p, q, key.d)
        return key
