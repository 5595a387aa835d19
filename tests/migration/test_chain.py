"""N-hop migration chains: role swaps, journal epochs, storage lineage.

The soak test is the PR's acceptance gate: ≥8 hops with crashes injected
at the storage-handoff boundaries, every hop healed in-protocol or by
journal recovery, and the workload's state — both enclave memory and the
sealed-storage namespace — intact at the far end.
"""

from __future__ import annotations

import os

import pytest

from repro.durability import wal
from repro.faults.plan import (
    FaultPlan,
    STEP_HANDOFF_KEY,
    STEP_HANDOFF_STORAGE,
)
from repro.durability.journal import Journal
from repro.migration.chain import hop_view, run_chain
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sdk import HostApplication, control
from tests.conftest import build_counter_app

CHAIN_SEED = int(os.environ.get("FAULT_SEED", "23"))


class TestHopViews:
    def test_roles_swap_on_even_hops(self, testbed):
        odd, even = hop_view(testbed, 1), hop_view(testbed, 2)
        assert odd.source.name == "source" and odd.target.name == "target"
        assert even.source.name == "target" and even.target.name == "source"
        # Infrastructure is shared, not copied.
        assert odd.durable is testbed.durable
        assert even.network is testbed.network

    def test_hop_number_becomes_the_journal_epoch(self, testbed):
        app = build_counter_app(testbed, tag="epoch")
        view = hop_view(testbed, 3)
        assert view.wal_epoch == 3
        target = MigrationOrchestrator(view).build_virgin_target(app)
        assert target.library.journal.name == f"enclave/target/{app.image.name}@3"
        assert wal.orchestrator_journal_name("img", 3) == "orchestrator/img@3"

    def test_chain_epochs_stay_off_a_later_plain_migration(self):
        """After a chain, a plain migration on the base testbed journals
        its target under the testbed's own epoch, not a hop's."""
        tb = build_testbed(seed=3)
        app = build_counter_app(tb, tag="after-chain")
        final = run_chain(tb, app, 2).final_app
        result = MigrationOrchestrator(tb).migrate_enclave(final)
        name = result.target_app.library.journal.name
        assert name == wal.enclave_journal_name("target", app.image.name, 0)
        kinds = [r.kind for r in Journal(tb.durable, name, wal.PARTY_TARGET).records()]
        assert kinds == ["channel", "key-installed", "live"]

    def test_a_launch_after_a_chain_journals_at_epoch_zero(self):
        """An instance built on a chain's machine outside any run opens
        the epoch-0 journal: no hop's epoch stays behind on the machine."""
        tb = build_testbed(seed=3)
        app = build_counter_app(tb, tag="launch-after-chain")
        run_chain(tb, app, 2)
        fresh = HostApplication(tb.target, tb.target_os, app.image, [], owner=tb.owner).launch()
        name = fresh.library.journal.name
        assert name == wal.enclave_journal_name("target", app.image.name, 0)
        assert Journal(tb.durable, name, wal.PARTY_TARGET).records() == []


class TestCleanChains:
    def test_two_hop_round_trip(self, testbed):
        app = build_counter_app(testbed, tag="round")
        app.ecall_once(0, "incr", 5)
        app.library.control_call(control.storage_put, "origin", "hop0")
        report = run_chain(testbed, app, hops=2)
        assert [h.outcome for h in report.hops] == ["migrated", "migrated"]
        final = report.final_app
        # Back on the original host with memory and storage intact.
        assert final.machine is testbed.source
        assert final.ecall_once(0, "read") == 5
        assert final.library.control_call(control.storage_get, "origin") == "hop0"

    def test_retired_host_serves_again(self, testbed):
        """Hop 2 re-imports onto the host retired at hop 1: the handoff
        counter passes the tombstone and the namespace is live again."""
        app = build_counter_app(testbed, tag="unretire")
        app.library.control_call(control.storage_put, "k", 1)
        run_chain(testbed, app, hops=2)
        ns = wal.storage_namespace("source", app.image.name)
        handoff = testbed.durable.counter(wal.storage_handoff_counter(ns))
        retired = testbed.durable.counter(wal.storage_retired_counter(ns))
        assert handoff > retired > 0


@pytest.mark.soak
class TestChainSoak:
    def test_eight_hops_with_crashes_at_handoff_boundaries(self, testbed):
        """≥8 hops; hops 2/4/6 crash a party at the storage- or key-
        handoff boundary.  Every crash must be healed (in-protocol retry,
        resumed-source re-drive, or journal recovery) and the workload's
        counter plus every sealed entry must survive end-to-end."""
        app = build_counter_app(testbed, tag="soak")
        app.ecall_once(0, "incr", 11)
        for n in range(3):
            app.library.control_call(control.storage_put, f"pre{n}", n)

        def plans(hop):
            if hop == 2:  # target dies mid storage handoff: retry heals
                return FaultPlan(seed=CHAIN_SEED).crash("target", STEP_HANDOFF_STORAGE)
            if hop == 4:  # source dies at the same boundary: recovery
                return FaultPlan(seed=CHAIN_SEED).crash("source", STEP_HANDOFF_STORAGE)
            if hop == 6:  # target dies while the key moves
                return FaultPlan(seed=CHAIN_SEED).crash("target", STEP_HANDOFF_KEY)
            return None

        report = run_chain(testbed, app, hops=8, plans=plans)
        assert len(report.hops) == 8
        assert report.crashes_healed >= 3, [h.outcome for h in report.hops]

        final = report.final_app
        assert final.machine is testbed.source  # even hop count: back home
        assert final.ecall_once(0, "read") == 11
        for n in range(3):
            assert final.library.control_call(control.storage_get, f"pre{n}") == n
        # The namespace still accepts writes after eight re-bindings.
        final.library.control_call(control.storage_put, "post", "alive")
        assert final.library.control_call(control.storage_get, "post") == "alive"
        testbed.monitor.assert_clean()

    def test_ten_hops_clean_keeps_versions_monotone(self, testbed):
        """A long clean chain: the committed version never regresses on
        either host even as the namespace is retired and revived."""
        app = build_counter_app(testbed, tag="long")
        app.library.control_call(control.storage_put, "w", 0)
        seen: list[int] = []

        def plans(hop):
            # No faults; ride along to sample the version after each hop.
            return None

        report = run_chain(testbed, app, hops=10, plans=plans)
        for hop_report in report.hops:
            machine = hop_report.app.machine.name
            ns = wal.storage_namespace(machine, app.image.name)
            seen.append(testbed.durable.counter(ns))
        assert seen == sorted(seen)
        assert report.recovered_hops == 0
