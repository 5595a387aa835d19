"""Network model and machine composition."""

import pytest

from repro.attacks.wiretap import Wiretap
from repro.machine import Machine
from repro.net.network import Network
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace


@pytest.fixture
def network(clock, trace):
    return Network(clock, DEFAULT_COSTS, trace)


class TestNetwork:
    def test_transfer_charges_time(self, network, clock):
        network.transfer("data", b"x" * 1_000_000)
        assert clock.now_ns > DEFAULT_COSTS.net_latency_ns

    def test_wan_slower_than_lan(self, clock, trace):
        lan = Network(clock, DEFAULT_COSTS, trace)
        before = clock.now_ns
        lan.transfer("a", b"x" * 1000)
        lan_cost = clock.now_ns - before
        before = clock.now_ns
        lan.transfer("b", b"x" * 1000, wan=True)
        wan_cost = clock.now_ns - before
        assert wan_cost > lan_cost

    def test_bytes_counted(self, network):
        network.transfer("a", b"x" * 100)
        network.transfer("b", b"y" * 50)
        assert network.bytes_transferred == 150

    def test_captured_by_label(self, network):
        tap = Wiretap.install(network)
        network.transfer("secret", b"one")
        network.transfer("other", b"two")
        network.transfer("secret", b"three")
        assert tap.captured("secret") == [b"one", b"three"]
        assert [r.label for r in network.log] == ["secret", "other", "secret"]

    def test_tap_observes(self, network):
        seen = []
        network.add_tap(lambda label, payload: seen.append((label, payload)) or None)
        network.transfer("x", b"data")
        assert seen == [("x", b"data")]

    def test_tap_can_replace_payload(self, network):
        network.add_tap(lambda label, payload: b"EVIL" if label == "x" else None)
        assert network.transfer("x", b"data") == b"EVIL"
        assert network.transfer("y", b"data") == b"data"

    def test_taps_chain(self, network):
        network.add_tap(lambda label, payload: payload + b"1")
        network.add_tap(lambda label, payload: payload + b"2")
        assert network.transfer("x", b"p") == b"p12"

    def test_clear_taps(self, network):
        network.add_tap(lambda label, payload: b"EVIL")
        network.clear_taps()
        assert network.transfer("x", b"data") == b"data"

    def test_wiretap_installed_first_keeps_original_payload(self, network):
        # A wiretap ahead of a tampering tap records what was *sent*;
        # the tampering tap changes what *arrives*.
        tap = Wiretap.install(network)
        network.add_tap(lambda label, payload: b"EVIL")
        assert network.transfer("x", b"original") == b"EVIL"
        assert tap.captured("x") == [b"original"]


class TestMachine:
    def test_machines_have_distinct_key_material(self, clock, trace):
        rng = DeterministicRng(1)
        a = Machine("a", clock, trace, rng)
        b = Machine("b", clock, trace, rng)
        assert a.cpu.platform_id != b.cpu.platform_id
        assert a.cpu._root_key.material != b.cpu._root_key.material

    def test_same_seed_same_machine(self, trace):
        a = Machine("host", VirtualClock(), trace, DeterministicRng(5))
        b = Machine("host", VirtualClock(), trace, DeterministicRng(5))
        assert a.cpu.platform_id == b.cpu.platform_id

    def test_provision_installs_quoting_enclave(self, clock, trace):
        from repro.crypto.keys import KeyPair
        from repro.crypto.rsa import generate_rsa_keypair
        from repro.sgx.attestation import AttestationService

        machine = Machine("host", clock, trace, DeterministicRng(2))
        ias = AttestationService(
            clock, DEFAULT_COSTS, KeyPair(generate_rsa_keypair(DeterministicRng("i")), "ias")
        )
        assert machine.quoting_enclave is None
        machine.provision(ias)
        assert machine.quoting_enclave is not None
        assert machine.quoting_enclave.cpu is machine.cpu
