"""Differential oracle: the fast crypto backend ≡ the pure-Python reference.

The fast backend (cached cipher objects, optional OpenSSL delegation via
``cryptography``) must be a *drop-in* for the reference implementation:
byte-identical ciphertext for every algorithm, key, nonce, payload size
(empty and non-block-aligned included) and CTR counter offset.  Property
tests drive both backends over randomized inputs and demand equality;
envelope tests additionally prove the two interoperate (seal on one,
open on the other) and agree on tamper rejection.  The public-key paths
(DH exponentiation and RSA signing on OpenSSL, and their builtin-``pow``
and CRT fallbacks) are held to the same bar, including when OpenSSL is
missing or refuses an input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend as backend_module
from repro.crypto.authenc import CIPHER_NAMES, open_envelope, seal_envelope, seal_parts
from repro.crypto.backend import (
    BACKEND_NAMES,
    FastBackend,
    ReferenceBackend,
    get_backend,
    make_backend,
    set_backend,
    use_backend,
)
from repro.crypto.dh import MODP_2048_P, dh_private, dh_public, dh_session_key
from repro.crypto.hashes import hmac_sha256, sha256
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import _CRT_PARAMS, RsaPrivateKey, generate_rsa_keypair
from repro.errors import CryptoError, IntegrityError
from repro.sim.rng import DeterministicRng

REF = ReferenceBackend()
FAST = FastBackend()

_KEY_512 = generate_rsa_keypair(DeterministicRng("oracle-512"), bits=512)
_KEY_1024 = generate_rsa_keypair(DeterministicRng("oracle-1024"))
#: Rebuilt from bare (n, e, d), as an enclave holds its image key.
_KEY_REBUILT = RsaPrivateKey(_KEY_1024.n, _KEY_1024.e, _KEY_1024.d)

payloads = st.binary(min_size=0, max_size=3000)
keys = st.binary(min_size=16, max_size=48)
counters = st.integers(min_value=0, max_value=2**62)
dh_bases = st.integers(min_value=2, max_value=MODP_2048_P - 2)
dh_exponents = st.integers(min_value=0, max_value=2**256 - 1)


class TestPrimitiveParity:
    @settings(max_examples=40, deadline=None)
    @given(key=st.binary(min_size=1, max_size=64), data=payloads)
    def test_rc4(self, key, data):
        assert FAST.rc4(key, data) == REF.rc4(key, data)

    @pytest.mark.skipif(not backend_module._HAVE_CRYPTOGRAPHY, reason="needs cryptography")
    def test_rc4_refused_by_openssl_falls_back(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise backend_module._CgUnsupported("ARC4 compiled out")

        fast = FastBackend()
        monkeypatch.setattr(backend_module, "Cipher", refusing)
        assert fast.rc4(b"cr4-key", b"payload" * 9) == REF.rc4(b"cr4-key", b"payload" * 9)
        assert fast._arc4_broken

    @pytest.mark.skipif(not backend_module._HAVE_CRYPTOGRAPHY, reason="needs cryptography")
    def test_rc4_other_errors_propagate(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("not a missing cipher")

        fast = FastBackend()
        monkeypatch.setattr(backend_module, "Cipher", failing)
        with pytest.raises(RuntimeError):
            fast.rc4(b"cr4-key", b"payload")
        assert not fast._arc4_broken

    @settings(max_examples=40, deadline=None)
    @given(key=keys, nonce=st.binary(min_size=8, max_size=8), data=payloads, offset=counters)
    def test_aes_ctr_with_offsets(self, key, nonce, data, offset):
        key16 = key[:16]
        assert FAST.aes_ctr(key16, nonce, data, offset) == REF.aes_ctr(key16, nonce, data, offset)

    @settings(max_examples=15, deadline=None)
    @given(key=keys, nonce=st.binary(min_size=4, max_size=4), data=st.binary(max_size=400),
           offset=st.integers(min_value=0, max_value=2**30))
    def test_des_ctr_with_offsets(self, key, nonce, data, offset):
        key8 = key[:8]
        assert FAST.des_ctr(key8, nonce, data, offset) == REF.des_ctr(key8, nonce, data, offset)

    @settings(max_examples=40, deadline=None)
    @given(key=keys, iv=st.binary(min_size=16, max_size=16), data=payloads)
    def test_aes_cbc_roundtrip(self, key, iv, data):
        key16 = key[:16]
        ct_fast = FAST.aes_cbc_encrypt(key16, iv, data)
        assert ct_fast == REF.aes_cbc_encrypt(key16, iv, data)
        # Decrypt across backends: each opens the other's ciphertext.
        assert FAST.aes_cbc_decrypt(key16, iv, ct_fast) == data
        assert REF.aes_cbc_decrypt(key16, iv, ct_fast) == data

    def test_ctr_keystream_offset_equals_midstream_slice(self):
        """Encrypting from block offset k must equal the tail of a longer
        stream — the property chunked/resumed encryption relies on."""
        key16, nonce = b"k" * 16, b"n" * 8
        whole = REF.aes_ctr(key16, nonce, b"\x00" * 160)
        for k in (1, 3, 9):
            tail = FAST.aes_ctr(key16, nonce, b"\x00" * (160 - 16 * k), first_counter=k)
            assert tail == whole[16 * k :]

    @pytest.mark.parametrize("cryptography", (True, False), ids=("openssl", "fallback"))
    def test_stream_ciphers_fill_an_out_buffer(self, monkeypatch, cryptography):
        """With ``out`` the stream ciphers write into the caller's buffer
        the bytes they would have returned, and return that buffer."""
        if not cryptography:
            monkeypatch.setattr(backend_module, "_HAVE_CRYPTOGRAPHY", False)
        data = bytes(range(256)) * 9 + b"tail"
        for backend in (REF, FastBackend()):
            calls = [
                lambda **out: backend.rc4(b"k" * 32, data, **out),
                lambda **out: backend.des_ctr(b"d" * 8, b"nonc", data, 3, **out),
                lambda **out: backend.aes_ctr(b"a" * 16, b"n" * 8, data, 5, **out),
            ]
            for call in calls:
                out = bytearray(len(data))
                assert call(out=out) is out
                assert bytes(out) == call()
                window = bytearray(len(data) + 8)
                call(out=memoryview(window)[4 : 4 + len(data)])
                assert window[:4] == window[-4:] == bytes(4)
                assert bytes(window[4:-4]) == call()

    def test_empty_payloads(self):
        assert FAST.rc4(b"k", b"") == b""
        assert FAST.aes_ctr(b"k" * 16, b"n" * 8, b"") == b""
        assert FAST.des_ctr(b"k" * 8, b"n" * 4, b"") == b""

    def test_non_block_aligned_payloads(self):
        for n in (1, 15, 17, 31, 4095, 4097):
            data = bytes(range(256)) * (n // 256 + 1)
            data = data[:n]
            assert FAST.aes_ctr(b"k" * 16, b"n" * 8, data) == REF.aes_ctr(b"k" * 16, b"n" * 8, data)


class TestPublicKeyParity:
    @settings(max_examples=25, deadline=None)
    @given(base=dh_bases, exponent=dh_exponents)
    def test_dh_modexp(self, base, exponent):
        expected = REF.dh_modexp(base, exponent, MODP_2048_P)
        assert FAST.dh_modexp(base, exponent, MODP_2048_P) == expected

    @pytest.mark.skipif(not backend_module._HAVE_CRYPTOGRAPHY, reason="needs cryptography")
    def test_dh_modexp_runs_on_openssl(self, monkeypatch):
        calls = []
        monkeypatch.setattr(backend_module, "pow", lambda *a: calls.append(a), raising=False)
        FAST.dh_modexp(2, dh_private(DeterministicRng("openssl")), MODP_2048_P)
        assert calls == []

    @pytest.mark.parametrize("seed", ["crt-a", "crt-b"])
    def test_crt_signatures_equal_plain_pow(self, seed):
        key = generate_rsa_keypair(DeterministicRng(seed))
        # Rebuilt from bare (n, e, d) with the keygen memo entry dropped,
        # as an enclave does with its image key: the factors are recovered.
        rebuilt = RsaPrivateKey(key.n, key.e, key.d)
        from_keygen = _CRT_PARAMS.pop((key.n, key.d))
        assert set(rebuilt.crt_params()[:2]) == set(from_keygen[:2])
        for message in (b"", b"transcript", bytes(range(256))):
            with use_backend(REF):
                expected = key.sign(message)
            with use_backend(FAST):
                assert key.sign(message) == expected
                assert rebuilt.sign(message) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        key=st.sampled_from([_KEY_512, _KEY_1024, _KEY_REBUILT]),
        message=st.binary(max_size=300),
    )
    def test_rsa_sign(self, key, message):
        digest = sha256(message)
        assert FAST.rsa_sign(key, digest) == REF.rsa_sign(key, digest)

    @pytest.mark.skipif(not backend_module._HAVE_CRYPTOGRAPHY, reason="needs cryptography")
    def test_rsa_sign_runs_on_openssl(self, monkeypatch):
        calls = []
        monkeypatch.setattr(backend_module, "pow", lambda *a: calls.append(a), raising=False)
        FAST.rsa_sign(_KEY_1024, sha256(b"openssl"))
        assert calls == []

    def test_unfactorable_key_signs_with_plain_pow(self):
        odd = RsaPrivateKey(n=(2**127 - 1) * (2**89 - 1) * 2**800 + 1, e=3, d=7)
        assert odd.crt_params() is None
        digest = sha256(b"no factors")
        assert FAST.rsa_sign(odd, digest) == REF.rsa_sign(odd, digest)


class TestOpenSslFallback:
    """The fast DH path falls back to builtin ``pow`` and RSA signing to
    the CRT, byte-for-byte."""

    @staticmethod
    def _session_key() -> bytes:
        a = dh_private(DeterministicRng("fallback-a"))
        b = dh_private(DeterministicRng("fallback-b"))
        return dh_session_key(dh_public(b), a)

    def _expected(self) -> bytes:
        with use_backend(REF):
            return self._session_key()

    @staticmethod
    def _signatures() -> list[bytes]:
        return [key.sign(b"fallback") for key in (_KEY_512, _KEY_1024, _KEY_REBUILT)]

    def _assert_signs_like_reference(self) -> None:
        with use_backend(REF):
            expected = self._signatures()
        with use_backend(FastBackend()):
            assert self._signatures() == expected

    def test_without_cryptography(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_HAVE_CRYPTOGRAPHY", False)
        with use_backend(FastBackend()):
            assert self._session_key() == self._expected()
        self._assert_signs_like_reference()

    def test_without_no_digest_info(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_CgNoDigestInfo", None)
        self._assert_signs_like_reference()

    def test_openssl_refuses(self, monkeypatch):
        class Refusing:
            @staticmethod
            def DHParameterNumbers(p, g):
                return (p, g)

            @staticmethod
            def DHPublicNumbers(y, group):
                raise ValueError("refused")

        monkeypatch.setattr(backend_module, "_HAVE_CRYPTOGRAPHY", True)
        monkeypatch.setattr(backend_module, "_cg_dh", Refusing)
        with use_backend(FastBackend()):
            assert self._session_key() == self._expected()

    def test_openssl_refuses_the_rsa_key(self, monkeypatch):
        class Refusing:
            @staticmethod
            def RSAPublicNumbers(e, n):
                return (e, n)

            class RSAPrivateNumbers:
                def __init__(self, *components):
                    pass

                def private_key(self):
                    raise ValueError("Invalid private key")

        monkeypatch.setattr(backend_module, "_HAVE_CRYPTOGRAPHY", True)
        monkeypatch.setattr(backend_module, "_CgNoDigestInfo", object)
        monkeypatch.setattr(backend_module, "_cg_rsa", Refusing)
        self._assert_signs_like_reference()


class TestEnvelopeParity:
    @settings(max_examples=10, deadline=None)
    @given(
        algorithm=st.sampled_from(CIPHER_NAMES),
        key=st.binary(min_size=16, max_size=32),
        nonce=st.binary(min_size=8, max_size=16),
        plaintext=payloads,
        aad=st.binary(max_size=32),
    )
    def test_identical_envelopes_and_cross_open(self, algorithm, key, nonce, plaintext, aad):
        k = SymmetricKey(key.ljust(16, b"\x00"), "oracle")
        with use_backend(REF):
            env_ref = seal_envelope(k, plaintext, nonce, algorithm, aad=aad)
        with use_backend(FAST):
            env_fast = seal_envelope(k, plaintext, nonce, algorithm, aad=aad)
        assert env_ref.to_bytes() == env_fast.to_bytes()
        # Sealed under one backend, opened under the other.
        with use_backend(FAST):
            assert open_envelope(k, env_ref, aad=aad) == plaintext
        with use_backend(REF):
            assert open_envelope(k, env_fast, aad=aad) == plaintext

    @settings(max_examples=30, deadline=None)
    @given(
        backend_name=st.sampled_from(BACKEND_NAMES),
        algorithm=st.sampled_from(CIPHER_NAMES),
        parts=st.lists(st.binary(max_size=300), max_size=5),
        nonce=st.binary(min_size=8, max_size=16),
        aad=st.binary(max_size=16),
    )
    def test_sealing_parts_equals_sealing_their_join(
        self, backend_name, algorithm, parts, nonce, aad
    ):
        k = SymmetricKey(b"p" * 32, "parts")
        plaintext = b"".join(parts)
        with use_backend(backend_name):
            sealed = seal_parts(k, parts, nonce, algorithm, aad=aad).to_bytes()
            assert sealed == seal_envelope(k, plaintext, nonce, algorithm, aad=aad).to_bytes()
            assert sealed == _wire_field_by_field(k, plaintext, nonce, algorithm, aad)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("algorithm", CIPHER_NAMES)
    def test_tamper_rejection(self, backend_name, algorithm):
        k = SymmetricKey(b"t" * 32, "tamper")
        with use_backend(backend_name):
            env = seal_envelope(k, b"payload" * 40, b"n" * 12, algorithm, aad=b"a")
            mangled = bytearray(env.to_bytes())
            mangled[-40] ^= 0x01  # flip a ciphertext byte
            from repro.crypto.authenc import Envelope

            with pytest.raises(IntegrityError):
                open_envelope(k, Envelope.from_bytes(bytes(mangled)), aad=b"a")
            with pytest.raises(IntegrityError):
                open_envelope(k, env, aad=b"wrong-aad")


def _wire_field_by_field(key, plaintext, nonce, algorithm, aad) -> bytes:
    """An envelope's wire form spelled out: ``sha256(pt) || pt`` through
    the active backend's allocating cipher call, the MAC over one
    concatenation, and every header field in order."""
    b = get_backend()
    enc, mac_key = key.derive("enc").material, key.derive("mac").material
    inner = sha256(plaintext) + plaintext
    if algorithm == "rc4":
        ciphertext = b.rc4(sha256(enc + nonce), inner)
    elif algorithm == "des":
        ciphertext = b.des_ctr(sha256(enc)[:8], nonce[:4], inner)
    elif algorithm in ("aes", "aes-ni"):
        ciphertext = b.aes_ctr(sha256(enc)[:16], nonce[:8], inner)
    else:
        ciphertext = b.aes_cbc_encrypt(sha256(enc)[:16], sha256(nonce)[:16], inner)
    algo = algorithm.encode()
    mac = hmac_sha256(mac_key, algo + nonce + aad + ciphertext)
    return b"".join(
        [
            b"SGXMIGv1",
            bytes([len(algo)]),
            algo,
            bytes([len(nonce)]),
            nonce,
            len(ciphertext).to_bytes(8, "big"),
            ciphertext,
            mac,
        ]
    )


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(CryptoError):
            make_backend("turbo")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "reference")
        previous = set_backend(None)
        try:
            assert get_backend().name == "reference"
        finally:
            set_backend(previous)

    def test_use_backend_restores(self):
        before = get_backend()
        with use_backend("reference") as b:
            assert b.name == "reference"
        assert get_backend() is before
