"""Diffie-Hellman, RSA signatures, typed keys, and the AE envelope."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.authenc import CIPHER_NAMES, Envelope, open_envelope, seal_envelope
from repro.crypto.dh import MODP_2048_P, dh_private, dh_public, dh_session_key
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rsa import RsaPublicKey, generate_rsa_keypair, role_keypair
from repro.errors import CryptoError, IntegrityError, SignatureError
from repro.sim.rng import DeterministicRng


def _party(rng):
    """One side of an exchange: (private, public)."""
    private = dh_private(rng)
    return private, dh_public(private)


class TestDh:
    def test_shared_secret_agrees(self, rng):
        (a, a_pub), (b, b_pub) = _party(rng.fork("a")), _party(rng.fork("b"))
        assert dh_session_key(b_pub, a) == dh_session_key(a_pub, b)

    def test_third_party_differs(self, rng):
        a, a_pub = _party(rng.fork("a"))
        b, b_pub = _party(rng.fork("b"))
        e, _ = _party(rng.fork("e"))
        assert dh_session_key(a_pub, e) != dh_session_key(b_pub, a)

    @pytest.mark.parametrize(
        "degenerate", [0, 1, MODP_2048_P - 1, MODP_2048_P, MODP_2048_P + 2, -2]
    )
    def test_degenerate_peer_rejected(self, rng, degenerate):
        private, _ = _party(rng.fork("a"))
        with pytest.raises(CryptoError):
            dh_session_key(degenerate, private)

    def test_secret_is_32_bytes(self, rng):
        (a, _), (_, b_pub) = _party(rng.fork("a")), _party(rng.fork("b"))
        assert len(dh_session_key(b_pub, a)) == 32


class TestRsa:
    def test_sign_verify(self, rng):
        key = generate_rsa_keypair(rng.fork("k"))
        sig = key.sign(b"message")
        key.public.verify(b"message", sig)  # no raise

    def test_wrong_message_rejected(self, rng):
        key = generate_rsa_keypair(rng.fork("k"))
        sig = key.sign(b"message")
        with pytest.raises(SignatureError):
            key.public.verify(b"other", sig)

    def test_tampered_signature_rejected(self, rng):
        key = generate_rsa_keypair(rng.fork("k"))
        sig = bytearray(key.sign(b"message"))
        sig[10] ^= 1
        with pytest.raises(SignatureError):
            key.public.verify(b"message", bytes(sig))

    def test_wrong_key_rejected(self, rng):
        key_a = generate_rsa_keypair(rng.fork("a"))
        key_b = generate_rsa_keypair(rng.fork("b"))
        sig = key_a.sign(b"message")
        assert not key_b.public.is_valid(b"message", sig)

    def test_signature_length_checked(self, rng):
        key = generate_rsa_keypair(rng.fork("k"))
        with pytest.raises(SignatureError):
            key.public.verify(b"message", b"short")

    @pytest.mark.parametrize("role", ["ias", "vendor", "platform/source", "image/x"])
    def test_signature_plus_modulus_rejected(self, role):
        """RSAVP1 refuses a representative s >= n: s + n, whenever it still
        fits in k bytes, is another byte string for the same signature."""
        key = role_keypair(role)
        k = key.modulus_bytes
        twins = 0
        for i in range(25):
            message = b"twin-%d" % i
            twin = int.from_bytes(key.sign(message), "big") + key.n
            if twin < 1 << (8 * k):
                twins += 1
                assert not key.public.is_valid(message, twin.to_bytes(k, "big"))
        assert twins > 0  # the refusal above was exercised

    def test_keygen_deterministic_and_cached(self):
        a = generate_rsa_keypair(DeterministicRng("same-seed"))
        b = generate_rsa_keypair(DeterministicRng("same-seed"))
        assert a.n == b.n

    def test_keygen_memo_follows_generator_state(self):
        """Two keygens on one advancing generator give two keys, and a
        memo hit leaves the generator exactly where a miss does."""
        rng = DeterministicRng("memo-advancing")
        first, second = generate_rsa_keypair(rng, 512), generate_rsa_keypair(rng, 512)
        assert first.n != second.n
        after_miss, after_hit = DeterministicRng("memo-state"), DeterministicRng("memo-state")
        key_miss = generate_rsa_keypair(after_miss, 512)
        key_hit = generate_rsa_keypair(after_hit, 512)
        assert key_hit == key_miss
        assert after_hit.u64() == after_miss.u64()

    def test_fingerprint_stable(self, rng):
        key = generate_rsa_keypair(rng.fork("k")).public
        assert key.fingerprint() == key.fingerprint()
        assert len(key.fingerprint()) == 32


class TestSymmetricKey:
    def test_min_length_enforced(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_derive_is_labelled(self):
        key = SymmetricKey(b"k" * 32, "root")
        assert key.derive("enc").material != key.derive("mac").material
        assert key.derive("enc").material == key.derive("enc").material

    def test_repr_hides_material(self):
        key = SymmetricKey(b"supersecretsupersecret!!", "root")
        assert b"supersecret" not in repr(key).encode()

    def test_random(self, rng):
        a = SymmetricKey.random(rng.fork("a"))
        b = SymmetricKey.random(rng.fork("b"))
        assert a.material != b.material


class TestEnvelope:
    @pytest.fixture
    def key(self):
        return SymmetricKey(b"\x07" * 32, "test")

    @pytest.mark.parametrize("algorithm", CIPHER_NAMES)
    def test_roundtrip_all_ciphers(self, key, algorithm):
        env = seal_envelope(key, b"payload " * 50, b"n" * 16, algorithm)
        assert open_envelope(key, env) == b"payload " * 50

    @pytest.mark.parametrize("algorithm", CIPHER_NAMES)
    def test_serialization_roundtrip(self, key, algorithm):
        env = seal_envelope(key, b"data", b"n" * 16, algorithm)
        assert open_envelope(key, Envelope.from_bytes(env.to_bytes())) == b"data"

    def test_ciphertext_hides_plaintext(self, key):
        secret = b"VERY-IDENTIFIABLE-SECRET-BYTES"
        env = seal_envelope(key, secret * 4, b"n" * 16, "aes")
        assert secret not in bytes(env.ciphertext)
        assert secret not in env.to_bytes()

    def test_wrong_key_rejected(self, key):
        env = seal_envelope(key, b"data", b"n" * 16)
        other = SymmetricKey(b"\x08" * 32, "other")
        with pytest.raises(IntegrityError):
            open_envelope(other, env)

    def test_tampered_ciphertext_rejected(self, key):
        env = seal_envelope(key, b"data" * 20, b"n" * 16)
        bad = Envelope(env.algorithm, env.nonce, b"X" + env.ciphertext[1:], env.mac)
        with pytest.raises(IntegrityError):
            open_envelope(key, bad)

    def test_tampered_mac_rejected(self, key):
        env = seal_envelope(key, b"data", b"n" * 16)
        bad = Envelope(env.algorithm, env.nonce, env.ciphertext, b"\x00" * 32)
        with pytest.raises(IntegrityError):
            open_envelope(key, bad)

    def test_aad_binding(self, key):
        env = seal_envelope(key, b"data", b"n" * 16, aad=b"context-a")
        with pytest.raises(IntegrityError):
            open_envelope(key, env, aad=b"context-b")
        assert open_envelope(key, env, aad=b"context-a") == b"data"

    def test_algorithm_swap_rejected(self, key):
        env = seal_envelope(key, b"data", b"n" * 16, "rc4")
        swapped = Envelope("aes", env.nonce, env.ciphertext, env.mac)
        with pytest.raises(IntegrityError):
            open_envelope(key, swapped)

    def test_unknown_algorithm_rejected(self, key):
        with pytest.raises(CryptoError):
            seal_envelope(key, b"data", b"n" * 16, "rot13")

    def test_short_nonce_rejected(self, key):
        with pytest.raises(CryptoError):
            seal_envelope(key, b"data", b"abc")

    def test_truncated_bytes_rejected(self, key):
        env = seal_envelope(key, b"data" * 100, b"n" * 16)
        with pytest.raises(CryptoError):
            Envelope.from_bytes(env.to_bytes()[: len(env.to_bytes()) // 2])

    def test_trailing_bytes_rejected(self, key):
        """One envelope has one wire form: bytes past the MAC are refused,
        not ignored (they used to open to the same plaintext)."""
        wire = seal_envelope(key, b"data" * 100, b"n" * 16).to_bytes()
        with pytest.raises(CryptoError):
            Envelope.from_bytes(wire + b"TRAILING-GARBAGE")
        with pytest.raises(CryptoError):
            Envelope.from_bytes(wire + b"\x00")
        assert open_envelope(key, Envelope.from_bytes(wire)) == b"data" * 100

    def test_parsed_envelope_keeps_its_wire_form(self, key):
        wire = seal_envelope(key, b"data" * 100, b"n" * 16).to_bytes()
        env = Envelope.from_bytes(wire)
        assert env.to_bytes() is wire
        assert env.size == len(wire)
        # The ciphertext is a read-only view of the wire bytes, not a copy.
        assert isinstance(env.ciphertext, memoryview) and env.ciphertext.readonly
        # A mutable buffer is copied first: the envelope never sees it change.
        buffer = bytearray(wire)
        parsed = Envelope.from_bytes(buffer)
        buffer[-40] ^= 0xFF
        assert parsed.to_bytes() == wire
        assert open_envelope(key, parsed) == b"data" * 100
        # A field-by-field copy has no wire form and rebuilds the same bytes.
        assert dataclasses.replace(env).to_bytes() == wire

    @given(st.binary(max_size=300), st.sampled_from(CIPHER_NAMES))
    @settings(max_examples=30)
    def test_roundtrip_property(self, data, algorithm):
        key = SymmetricKey(b"\x09" * 32, "prop")
        env = seal_envelope(key, data, b"n" * 16, algorithm)
        assert open_envelope(key, env) == data
