"""The adversary's wiretap, and a wire log that keeps no payload.

The network records each transfer's metadata; the bytes are kept only
by a tap the adversary installs.
"""

import pytest

from repro.attacks.wiretap import Wiretap
from repro.faults import FaultInjector, FaultPlan, MessageFault
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.net.network import Network
from repro.sdk.host import HostApplication
from repro.sim.costs import DEFAULT_COSTS
from repro.workloads.memcached import build_memcached_image

from tests.conftest import build_counter_app


@pytest.fixture
def network(clock, trace):
    return Network(clock, DEFAULT_COSTS, trace)


class TestWiretap:
    def test_records_each_send_once_in_order_per_label(self, network):
        tap = Wiretap.install(network)
        network.transfer("secret", b"one")
        network.transfer("other", b"two")
        network.transfer("secret", bytearray(b"three"))
        assert tap.captured("secret") == [b"one", b"three"]
        assert tap.captured("other") == [b"two"]
        assert tap.captured("never-sent") == []
        assert tap.sends == [("secret", b"one"), ("other", b"two"), ("secret", b"three")]

    def test_delivers_unchanged(self, network):
        Wiretap.install(network)
        assert network.transfer("x", b"data") == b"data"

    def test_records_what_reaches_it(self, network):
        # Taps run in installation order: a wiretap behind a tampering
        # tap records the tampered bytes.
        network.add_tap(lambda label, payload: b"EVIL")
        tap = Wiretap.install(network)
        network.transfer("x", b"original")
        assert tap.captured("x") == [b"EVIL"]

    def test_injected_duplicate_is_logged_but_captured_once(self):
        plan = FaultPlan(seed=2)
        plan.message_faults.append(MessageFault("duplicate", "channel-request"))
        tb = build_testbed(seed=2002)
        app = build_counter_app(tb, tag="wiretap-dup")
        tap = Wiretap.install(tb.network)
        MigrationOrchestrator(
            tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
        ).migrate_enclave(app)
        records = [r for r in tb.network.log if r.label == "channel-request"]
        assert [r.duplicate for r in records] == [False, True]
        assert records[1].duplicate_of == records[0].seq
        assert len(tap.captured("channel-request")) == 1


def test_wire_log_holds_no_bytes_after_a_bulk_migration():
    """A 1 MB memcached migration with no tap installed leaves only
    metadata behind: no field of any wire record holds bytes."""
    tb = build_testbed(seed=452)
    built = build_memcached_image(tb.builder, state_mb=1)
    tb.owner.register_image(built)
    app = HostApplication(tb.source, tb.source_os, built.image, [], owner=tb.owner).launch()
    MigrationOrchestrator(tb).migrate_enclave(app)
    assert sum(record.n_bytes for record in tb.network.log) > 1024 * 1024
    for record in tb.network.log:
        for name, value in vars(record).items():
            assert not isinstance(value, (bytes, bytearray, memoryview)), name
