"""Diffie-Hellman key exchange over the RFC 3526 2048-bit MODP group.

The paper: "The source and the target control threads leverage
Diffie-Hellman key exchange protocol to build a secure channel" (§V-B).
This is classic finite-field DH; the shared secret is hashed into a
256-bit session key.  Every protocol party (enclave control threads, the
owner, the agent enclave) goes through the helpers below; the
exponentiation itself runs on the active crypto backend.
"""

from __future__ import annotations

from repro.crypto.backend import get_backend
from repro.crypto.hashes import sha256
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng

# RFC 3526, group 14 (2048-bit MODP).
MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_2048_G = 2


def dh_private(rng: DeterministicRng) -> int:
    """A fresh 256-bit private exponent (top bit set, so never short)."""
    return rng.getrandbits(256) | (1 << 255)


def dh_public(private: int) -> int:
    """This party's public half, ``g ** private mod p``."""
    return get_backend().dh_modexp(MODP_2048_G, private, MODP_2048_P)


def dh_check_peer(peer_public: int) -> None:
    """Refuse a degenerate peer value with :class:`CryptoError`.

    0, 1, p-1 and anything outside the field would force a predictable
    shared secret — a real small-subgroup check.
    """
    if not 1 < peer_public < MODP_2048_P - 1:
        raise CryptoError("degenerate DH public value")


def dh_session_key(peer_public: int, private: int) -> bytes:
    """Complete the exchange and return a 32-byte session key."""
    dh_check_peer(peer_public)
    shared = get_backend().dh_modexp(peer_public, private, MODP_2048_P)
    return sha256(shared.to_bytes(256, "big"))
