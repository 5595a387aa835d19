"""N-hop migration chains: one enclave ping-ponged between two hosts.

The paper's protocol moves an enclave once, source → target.  Real
deployments re-migrate: maintenance drains a host, the enclave comes
back later, and the *same pair of machines* ends up hosting the same
image many times over.  This module drives that shape — hop k runs the
full §IV/§V protocol with the machines' roles swapped on every other
hop — and keeps three things straight that a single migration never has
to think about:

* **journal epochs** — journals are named by machine and image, so hop k
  would otherwise collide with hop k-2's logs on the same host and a
  stale ``done``/``released`` record would poison recovery.  Each hop
  stamps its journals with the hop number (see
  :func:`repro.durability.wal.enclave_journal_name`).
* **sealed-storage lineage** — the storage namespace follows the enclave
  across hops; the retired/handoff counter pair lets a host that was
  retired on hop k serve again on hop k+2 (the strictly increasing
  channel sequence makes the un-retire sound).
* **crash healing** — hops may carry fault plans; in-protocol retries
  heal what they can and :func:`~repro.durability.recovery.recover_until_rest`
  re-drives the rest, so a chain soak can inject a crash at every
  handoff boundary and still demand a single live instance at the end.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.errors import MachineCrash, MigrationAborted, PartyCrash
from repro.faults import FaultInjector
from repro.migration.orchestrator import (
    FAULT_TOLERANT_RETRY,
    MigrationOrchestrator,
    RetryPolicy,
)
from repro.migration.testbed import Testbed
from repro.sdk.host import HostApplication

#: Re-drives a hop may take after crashes before the chain gives up.
MAX_REDRIVES_PER_HOP = 4


@dataclass
class HopReport:
    """What happened on one hop of a chain."""

    hop: int
    source_name: str
    target_name: str
    #: The live instance after the hop (migrated or recovered).
    app: HostApplication
    #: "migrated" for a clean (possibly in-protocol-retried) run, or
    #: "recovered:<outcome>" when journal recovery finished the hop.
    outcome: str
    #: Crash/abort events this hop survived before completing.
    crashes_healed: int = 0
    #: Times the whole hop was re-driven after a rollback recovery.
    redrives: int = 0


@dataclass
class ChainReport:
    """Outcome of an N-hop chain."""

    hops: list[HopReport] = field(default_factory=list)

    @property
    def final_app(self) -> HostApplication:
        return self.hops[-1].app

    @property
    def crashes_healed(self) -> int:
        return sum(h.crashes_healed for h in self.hops)

    @property
    def recovered_hops(self) -> int:
        return sum(1 for h in self.hops if h.outcome != "migrated")


def hop_view(tb: Testbed, hop: int) -> Testbed:
    """A role-correct view of ``tb`` for hop ``hop`` (1-indexed).

    Odd hops run in the base orientation; even hops swap the machines.
    The view shares every piece of infrastructure (clock, network,
    durable store, monitor, telemetry) with the base testbed — only the
    role labels move.  The hop number becomes the journal epoch: the
    orchestrator WAL's via ``wal_epoch`` on the view, the target
    enclave's via ``journal_epoch`` on the machine (read when the
    target's SGX library is constructed, so it must be stamped before
    the virgin target is built — i.e. here).
    """
    view = copy.copy(tb)
    if hop % 2 == 0:
        view.source, view.target = tb.target, tb.source
        view.source_vm, view.target_vm = tb.target_vm, tb.source_vm
        view.source_os, view.target_os = tb.target_os, tb.source_os
    view.wal_epoch = hop
    view.target.journal_epoch = hop
    return view


def run_chain(
    tb: Testbed,
    app: HostApplication,
    hops: int,
    plans=None,
    retry: RetryPolicy | None = None,
) -> ChainReport:
    """Migrate ``app`` back and forth for ``hops`` hops.

    ``plans`` maps hop number → :class:`~repro.faults.plan.FaultPlan`
    (dict or callable); a hop whose plan crashes a party is finished by
    journal recovery, or rolled back and re-driven without the plan —
    the fault fired, it is not owed a second shot.  Raises
    :class:`~repro.errors.MigrationAborted` if a hop's lineage dies for
    good (which the chain invariants say must never happen for the
    crash points this harness injects).
    """
    retry = retry or FAULT_TOLERANT_RETRY
    report = ChainReport()
    current = app
    for hop in range(1, hops + 1):
        view = hop_view(tb, hop)
        plan = plans(hop) if callable(plans) else (plans or {}).get(hop)
        current, hop_report = _drive_hop(view, current, hop, plan, retry)
        report.hops.append(hop_report)
    return report


def _drive_hop(
    view: Testbed,
    app: HostApplication,
    hop: int,
    plan,
    retry: RetryPolicy,
) -> tuple[HostApplication, HopReport]:
    """One hop, driven to completion through crashes and recoveries."""
    from repro.durability.recovery import recover_until_rest

    crashes = 0
    redrives = 0
    while True:
        faults = FaultInjector(plan) if plan is not None else None
        orch = MigrationOrchestrator(view, retry=retry, faults=faults)
        try:
            result = orch.migrate_enclave(app)
            # In-protocol healing (retried attempts, crashed-but-spent
            # sources) never surfaces as an exception; fold it in so the
            # soak can assert its injected faults actually fired.
            crashes += orch.stats.retries + orch.stats.crashes_seen
            return result.target_app, HopReport(
                hop=hop,
                source_name=view.source.name,
                target_name=view.target.name,
                app=result.target_app,
                outcome="migrated",
                crashes_healed=crashes,
                redrives=redrives,
            )
        except (PartyCrash, MachineCrash, MigrationAborted) as exc:
            crashes += 1
            if (
                isinstance(exc, MigrationAborted)
                and app.library.enclave_id is not None
            ):
                # Clean abort with the source still serving: the
                # orchestrator already rolled the protocol back; just
                # re-drive without the (already fired) fault plan.
                outcome = "resumed-source"
            else:
                # A crash inside recovery takes effect too; re-drive.
                rec, _, _ = recover_until_rest(view, app, orchestrator=orch)
                if rec is None:
                    raise MigrationAborted(
                        f"chain hop {hop}: recovery did not converge"
                    ) from exc
                if rec.finalized:
                    return rec.target_app, HopReport(
                        hop=hop,
                        source_name=view.source.name,
                        target_name=view.target.name,
                        app=rec.target_app,
                        outcome=f"recovered:{rec.outcome}",
                        crashes_healed=crashes,
                        redrives=redrives,
                    )
                if rec.outcome == "source-restored":
                    app = rec.target_app  # the rebuilt source instance
                elif rec.outcome != "resumed-source":
                    raise MigrationAborted(
                        f"chain hop {hop}: lineage lost ({rec.outcome})"
                    ) from exc
                outcome = rec.outcome
            redrives += 1
            if redrives > MAX_REDRIVES_PER_HOP:
                raise MigrationAborted(
                    f"chain hop {hop}: gave up after {redrives} re-drives "
                    f"(last recovery outcome: {outcome})"
                ) from exc
            plan = None  # the fault fired; the re-drive runs clean
