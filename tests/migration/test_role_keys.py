"""Long-lived keys come from their role, not from the world's seed."""

from repro.crypto import rsa
from repro.migration.testbed import build_testbed

from tests.conftest import make_counter_program


def _world(seed: int):
    tb = build_testbed(seed=seed)
    built = tb.builder.build("role-keys", make_counter_program("role-keys"))
    return tb, built


def _platform_key(machine):
    return machine.quoting_enclave._attestation_key.public


def test_worlds_share_role_keys_but_not_platform_ids(monkeypatch):
    a, image_a = _world(seed=301)
    uncached = []
    generate = rsa._generate_rsa_keypair_uncached
    monkeypatch.setattr(
        rsa,
        "_generate_rsa_keypair_uncached",
        lambda rng, bits: uncached.append(bits) or generate(rng, bits),
    )
    b, image_b = _world(seed=302)
    assert uncached == []

    assert a.ias.public_key == b.ias.public_key
    assert a.builder._vendor_key.public == b.builder._vendor_key.public
    for name in ("source", "target"):
        assert _platform_key(getattr(a, name)) == _platform_key(getattr(b, name))
    assert image_a.image_private_key.public == image_b.image_private_key.public

    assert _platform_key(a.source) != _platform_key(a.target)
    assert a.ias.public_key != a.builder._vendor_key.public
    assert a.source.cpu.platform_id != b.source.cpu.platform_id
    assert a.target.cpu.platform_id != b.target.cpu.platform_id
