"""Active attacks on the migration secure channel (§V-B).

The channel's mutual authentication must survive an adversary who owns
the wire *and* can create enclaves of their own: the source must only
talk to an IAS-attested enclave with its own measurement; the target
must only accept a DH answer signed by the image private key that only
owner-provisioned instances hold.
"""

import pytest

from repro.crypto.authenc import seal_envelope
from repro.crypto.dh import dh_public
from repro.crypto.hashes import sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import (
    AttestationError,
    ChannelError,
    CryptoError,
    IntegrityError,
    QuoteRejected,
    SignatureError,
)
from repro.migration.orchestrator import MigrationOrchestrator, _quote_to_dict
from repro.migration.testbed import build_testbed
from repro.sdk import control
from repro.sdk.host import HostApplication
from repro.serde import pack, unpack
from repro.sim.rng import DeterministicRng

from tests.conftest import build_counter_app


@pytest.fixture
def orch(testbed):
    return MigrationOrchestrator(testbed)


class TestSourceSideAuthentication:
    def test_wrong_measurement_target_rejected(self, testbed, orch):
        """An attested-but-different enclave must not receive a channel."""
        app = build_counter_app(testbed, tag="chansec-a")
        orch.checkpoint_enclave(app)
        # A genuine enclave, genuinely attested — but a different image.
        other = build_counter_app(testbed, tag="chansec-other")
        other_target = HostApplication(
            testbed.target, testbed.target_os, other.image, [], name="lookalike"
        )
        other_target.library.launch(owner=None)
        quote, dh_pub = other_target.library.control_call(
            control.target_channel_request, testbed.target.quoting_enclave
        )
        avr = testbed.ias.verify_quote(quote)
        with pytest.raises(QuoteRejected):
            app.library.control_call(control.source_open_channel, avr, dh_pub)

    def test_mitm_dh_substitution_rejected_by_source(self, testbed, orch):
        """An attacker swapping the target's DH half breaks the binding.

        The quote's report_data commits to the DH value, so a
        man-in-the-middle cannot splice their own key into an honest
        attestation.
        """
        app = build_counter_app(testbed, tag="chansec-mitm")
        orch.checkpoint_enclave(app)
        target = orch.build_virgin_target(app)
        quote, _honest_dh = target.library.control_call(
            control.target_channel_request, testbed.target.quoting_enclave
        )
        avr = testbed.ias.verify_quote(quote)
        attacker_dh = dh_public(DeterministicRng("mitm").getrandbits(256))
        with pytest.raises(AttestationError):
            app.library.control_call(control.source_open_channel, avr, attacker_dh)

    def test_unattested_quote_never_reaches_channel(self, testbed, orch):
        """Quotes from an unregistered platform die at IAS."""
        rogue = build_testbed(seed=901)  # its platforms unknown to testbed.ias
        app = build_counter_app(testbed, tag="chansec-rogue")
        orch.checkpoint_enclave(app)
        rogue_app = build_counter_app(rogue, tag="chansec-rogue")
        rogue_target = HostApplication(
            rogue.target, rogue.target_os, rogue_app.image, [], name="rogue"
        )
        rogue_target.library.launch(owner=None)
        quote, _dh = rogue_target.library.control_call(
            control.target_channel_request, rogue.target.quoting_enclave
        )
        # Worlds share role keys (IAS, vendor, platform, image), so only
        # the platform id keeps this world's IAS from trusting the quote.
        with pytest.raises(QuoteRejected, match="unknown platform"):
            testbed.ias.verify_quote(quote)


class TestTargetSideAuthentication:
    def test_mitm_dh_substitution_rejected_by_target(self, testbed, orch):
        """The source's signature binds both DH halves; swapping the
        source half invalidates it."""
        app = build_counter_app(testbed, tag="chansec-t")
        orch.checkpoint_enclave(app)
        target = orch.build_virgin_target(app)
        quote, target_dh = target.library.control_call(
            control.target_channel_request, testbed.target.quoting_enclave
        )
        avr = testbed.ias.verify_quote(quote)
        _source_dh, signature = app.library.control_call(
            control.source_open_channel, avr, target_dh
        )
        attacker_dh = dh_public(DeterministicRng("mitm2").getrandbits(256))
        with pytest.raises(SignatureError):
            target.library.control_call(
                control.target_complete_channel, attacker_dh, signature
            )

    def test_unprovisioned_impostor_cannot_sign(self, testbed, orch):
        """Only instances the owner provisioned hold the image private
        key; a fresh enclave cannot impersonate a migration source."""
        app = build_counter_app(testbed, tag="chansec-imp", provision=False)
        orch.checkpoint_enclave(app)
        target = orch.build_virgin_target(app)
        target.library.control_call(
            control.target_channel_request, testbed.target.quoting_enclave
        )
        with pytest.raises(ChannelError):
            orch.establish_channel(app, target)

    def test_complete_channel_requires_pending_request(self, testbed, orch):
        app = build_counter_app(testbed, tag="chansec-norq")
        target = orch.build_virgin_target(app)
        with pytest.raises(ChannelError):
            target.library.control_call(control.target_complete_channel, 5, b"sig")


class TestSessionKeyProperties:
    def test_fresh_session_key_per_migration(self, testbed, orch):
        """Two migrations of two apps produce unrelated key envelopes."""
        app_a = build_counter_app(testbed, tag="fresh-a")
        app_b = build_counter_app(testbed, tag="fresh-b")
        orch.migrate_enclave(app_a)
        orch.migrate_enclave(app_b)
        envelopes = testbed.network.captured("kmigrate")
        assert len(envelopes) == 2
        assert envelopes[0] != envelopes[1]

    def test_key_envelope_opaque_without_session_key(self, testbed, orch):
        from repro.crypto.authenc import Envelope, open_envelope
        from repro.crypto.keys import SymmetricKey

        app = build_counter_app(testbed, tag="opaque")
        orch.migrate_enclave(app)
        sealed = testbed.network.captured("kmigrate")[0]
        guess = SymmetricKey(b"\x00" * 32, "guess")
        with pytest.raises(IntegrityError):
            open_envelope(guess, Envelope.from_bytes(sealed), aad=b"kmigrate")


class TestDegenerateDh:
    def test_provision_refuses_degenerate_owner_half(self, testbed):
        """An owner half of 1 makes the session key sha256(1), so whoever
        forged it could seal their own image key for the enclave.
        Provisioning must refuse it and leave the enclave unattested."""
        app = build_counter_app(testbed, tag="degenerate-dh", provision=False)
        app.library.control_call(control.provision_request, testbed.source.quoting_enclave)
        predictable = SymmetricKey(sha256((1).to_bytes(256, "big")), "forged")
        forged = {"priv_n": 3, "priv_e": 1, "priv_d": 1, "ias_n": 3, "ias_e": 1}
        sealed = seal_envelope(predictable, pack(forged), b"n" * 16, "aes", aad=b"provision")
        with pytest.raises(CryptoError):
            app.library.control_call(control.provision_complete, 1, sealed.to_bytes())
        assert not app.library.control_call(lambda rt: rt.attested())
