"""Cryptographic substrate, implemented from scratch.

The paper's checkpoint pipeline, sealed-page format, attestation and secure
channel all need symmetric ciphers, hashes, Diffie-Hellman and signatures.
We implement the ciphers the paper evaluates (RC4, DES, AES — §VIII-B) as
real, test-vector-verified algorithms, plus the supporting primitives:

* :mod:`repro.crypto.rc4`     — RC4 stream cipher (paper's default).
* :mod:`repro.crypto.des`     — single DES (paper's alternative).
* :mod:`repro.crypto.aes`     — AES-128, scalar + numpy-batched.
* :mod:`repro.crypto.modes`   — CBC / CTR modes and PKCS#7 padding.
* :mod:`repro.crypto.hashes`  — SHA-256 / HMAC convenience wrappers.
* :mod:`repro.crypto.dh`      — RFC 3526 group-14 Diffie-Hellman.
* :mod:`repro.crypto.rsa`     — RSA signatures (attestation, channel auth).
* :mod:`repro.crypto.keys`    — typed key material and a KDF.
* :mod:`repro.crypto.authenc` — encrypt-then-MAC envelope (checkpoints,
  sealed EPC pages).
"""

from repro.crypto.aes import Aes128
from repro.crypto.authenc import CIPHER_NAMES, open_envelope, seal_envelope
from repro.crypto.backend import (
    BACKEND_NAMES,
    CryptoBackend,
    get_backend,
    make_backend,
    set_backend,
    use_backend,
)
from repro.crypto.des import Des
from repro.crypto.dh import dh_private, dh_public, dh_session_key
from repro.crypto.hashes import hkdf, hmac_sha256, sha256
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rc4 import Rc4
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair

__all__ = [
    "Aes128",
    "BACKEND_NAMES",
    "CIPHER_NAMES",
    "CryptoBackend",
    "Des",
    "get_backend",
    "make_backend",
    "set_backend",
    "use_backend",
    "dh_private",
    "dh_public",
    "dh_session_key",
    "KeyPair",
    "Rc4",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SymmetricKey",
    "generate_rsa_keypair",
    "hkdf",
    "hmac_sha256",
    "open_envelope",
    "seal_envelope",
    "sha256",
]
