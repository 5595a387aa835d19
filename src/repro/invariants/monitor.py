"""Live runtime monitor for the paper's global safety invariants.

The attack tests check these properties at the *end* of a scenario; the
monitor checks them *while the simulation runs*, in every test, whether
or not the test thought to ask:

* **single-instance** — at most one live enclave instance per migration
  lineage (P-5: migration must never fork a measurement);
* **no execution after self-destroy** — an instance observed SPENT never
  completes another ecall and never becomes non-SPENT again;
* **escrow exactly-once** — the §VI-D agent releases each escrowed key
  at most once;
* **escrow-table bound** — under churn the agent's escrow table never
  holds more entries than distinct measurements ever escrowed (a larger
  table means entries are leaking instead of being overwritten);
* **snapshot sequence monotonicity** — §V-C snapshot *takes* per image
  carry strictly increasing sequence numbers; a non-monotone take means
  a rolled-back lineage is quietly generating checkpoints;
* **CSSA is hardware-only** — the tracked CSSA value is never readable
  by software (the restore path must work without ever reading it).

The monitor attaches to both guest engines (a periodic hook on the
round-robin scheduler) and to the event trace (an observer for agent
release events).  A violation is recorded *and* raised eagerly as
:class:`~repro.errors.InvariantViolation`; recording matters because a
retry loop may swallow the raise — the autouse test fixture re-checks
the recorded list at teardown, so a swallowed violation still fails the
test that caused it.

Only :meth:`MigrationOrchestrator.migrate_enclave` registers lineages:
the §V-C snapshot/suspend flows intentionally produce a second instance
of the same measurement (a *legal* fork, gated by audit) and must not
trip the single-instance rule.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.errors import (
    InvariantViolation,
    ReproError,
    SgxAccessFault,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.migration.testbed import Testbed
    from repro.sdk.host import HostApplication
    from repro.sdk.library import SgxLibrary

_CHANNEL_SPENT = 2  # mirrors repro.sdk.control.CHANNEL_SPENT

#: Monitors constructed since the last reset; the autouse test fixture
#: asserts every one of them is clean at teardown.
_ACTIVE: list["InvariantMonitor"] = []

#: Engine rounds between full sweeps; per-round checks would quadruple
#: sim time for no extra coverage (state transitions of interest span
#: many rounds).
CHECK_INTERVAL = 32


def active_monitors() -> list["InvariantMonitor"]:
    return list(_ACTIVE)


def reset_active() -> None:
    _ACTIVE.clear()


class InvariantMonitor:
    """Continuously asserts migration safety invariants on one testbed."""

    def __init__(self, testbed: "Testbed") -> None:
        self.tb = testbed
        self.enabled = True
        self.violations: list[str] = []
        self._tick = 0
        self._lineages: dict[int, list["HostApplication"]] = {}
        self._app_lineage: dict[int, int] = {}  # id(app) -> lineage
        self._next_lineage = 1
        #: (machine name, enclave id) pairs ever observed SPENT.
        self._spent: set[tuple[str, int]] = set()
        self._escrow_releases: dict[str, int] = {}
        #: Distinct measurements ever escrowed: the table-size bound.
        self._escrow_keys: set[str] = set()
        #: Highest §V-C snapshot sequence taken, per image name.
        self._snapshot_taken: dict[str, int] = {}
        self._cssa_probed: set[tuple[str, int]] = set()
        _ACTIVE.append(self)

    # ---------------------------------------------------------------- wiring
    def attach(self) -> None:
        """Hook into both guest engines and the event trace."""
        for guest_os in (self.tb.source_os, self.tb.target_os):
            guest_os.engine.round_hooks.append(self._on_round)
        self.tb.trace.add_observer(self._on_event)
        self.tb.source.monitor = self
        self.tb.target.monitor = self

    # -------------------------------------------------------------- lineages
    def register_lineage(self, app: "HostApplication") -> int:
        """Start (or return) the migration lineage rooted at ``app``."""
        existing = self._app_lineage.get(id(app))
        if existing is not None:
            return existing
        lineage = self._next_lineage
        self._next_lineage += 1
        self._lineages[lineage] = [app]
        self._app_lineage[id(app)] = lineage
        return lineage

    def join_lineage(self, lineage: int, app: "HostApplication") -> None:
        """Add a successor instance (migrated or recovered) to a lineage."""
        if lineage not in self._lineages:
            raise InvariantViolation(f"unknown lineage {lineage}")
        if self._app_lineage.get(id(app)) == lineage:
            return
        self._lineages[lineage].append(app)
        self._app_lineage[id(app)] = lineage

    def lineage_of(self, app: "HostApplication") -> int | None:
        return self._app_lineage.get(id(app))

    def lineage_live_count(self, app: "HostApplication") -> int:
        """How many instances of ``app``'s lineage are currently live."""
        lineage = self._app_lineage.get(id(app))
        if lineage is None:
            return 0
        return self._count_live(self._lineages[lineage])

    # ----------------------------------------------------------------- hooks
    def _on_round(self) -> None:
        if not self.enabled or not self._lineages:
            return
        self._tick += 1
        if self._tick % CHECK_INTERVAL == 0:
            self.check_now()

    def _on_event(self, event) -> None:
        if not self.enabled:
            return
        if event.category == "agent" and event.name == "release":
            key_id = str(event.payload.get("key_id"))
            count = self._escrow_releases.get(key_id, 0) + 1
            self._escrow_releases[key_id] = count
            if count > 1:
                self._violate(
                    f"escrowed key {key_id[:12]}… released {count} times "
                    "(must be exactly once)"
                )
        elif event.category == "agent" and event.name == "escrow":
            self._escrow_keys.add(str(event.payload.get("key_id")))
            table_size = int(event.payload.get("table_size", 0))
            if table_size > len(self._escrow_keys):
                self._violate(
                    f"agent escrow table holds {table_size} entries but only "
                    f"{len(self._escrow_keys)} distinct measurements were "
                    "ever escrowed (entries are leaking under churn)"
                )
        elif event.category == "snapshot" and event.name == "take":
            image = str(event.payload.get("image"))
            sequence = int(event.payload.get("sequence", 0))
            last = self._snapshot_taken.get(image, 0)
            if sequence <= last:
                self._violate(
                    f"§V-C snapshot sequence went backwards for {image!r} "
                    f"({last} → {sequence}): a rolled-back lineage is "
                    "generating checkpoints"
                )
            self._snapshot_taken[image] = max(last, sequence)

    def on_ecall_result(self, library: "SgxLibrary") -> None:
        """Called by the SDK whenever a worker ecall produces a result."""
        if not self.enabled or library.enclave_id is None:
            return
        key = (library.machine.name, library.enclave_id)
        if key in self._spent:
            self._violate(
                f"enclave {key} completed an ecall after self-destroy "
                "(execution after SPENT)"
            )

    # ---------------------------------------------------------------- checks
    def check_now(self) -> None:
        """Run a full invariant sweep; raises on the first violation."""
        if not self.enabled:
            return
        self.tb.trace.metrics.counter("invariants.checks_total").inc()
        for lineage, apps in self._lineages.items():
            live = self._count_live(apps, lineage=lineage)
            if live > 1:
                self._violate(
                    f"lineage {lineage}: {live} live instances of the same "
                    "measurement (migration forked the enclave)"
                )
            for app in apps:
                self._probe_cssa(app)

    def assert_clean(self) -> None:
        """Final verdict: re-sweep, then fail on anything ever recorded."""
        if not self.enabled:
            return
        self.check_now()
        if self.violations:
            raise InvariantViolation(
                "invariant violations recorded during the run: "
                + "; ".join(self.violations)
            )

    def acknowledge(self) -> None:
        """Clear recorded violations and stand down (sentinel tests only)."""
        self.violations.clear()
        self.enabled = False

    # --------------------------------------------------------------- helpers
    def _count_live(self, apps, lineage: int | None = None) -> int:
        live = 0
        for app in apps:
            state = self._enclave_state(app)
            if state is None:
                continue
            channel_state, global_flag = state
            key = (app.machine.name, app.library.enclave_id)
            if channel_state == _CHANNEL_SPENT:
                self._spent.add(key)
                continue
            if key in self._spent:
                self._violate(
                    f"enclave {key} was SPENT and is now {channel_state}: a "
                    "self-destroyed instance came back to life"
                )
            if global_flag == 0:
                live += 1
        return live

    def _enclave_state(self, app) -> tuple[int, int] | None:
        """(channel_state, global_flag) via hardware reads; None if gone."""
        library = app.library
        if library.enclave_id is None:
            return None
        layout = library.image.layout
        try:
            hw = library.driver.hw(library.enclave_id)
            state = struct.unpack(
                "<Q", hw.hw_read(layout.channel_state_vaddr(), 8)
            )[0]
            flag = struct.unpack(
                "<Q", hw.hw_read(layout.global_flag_vaddr(), 8)
            )[0]
        except ReproError:
            # Destroyed mid-check or the page is evicted: either way the
            # instance is not provably live right now — never guess.
            return None
        return state, flag

    def _probe_cssa(self, app) -> None:
        """Assert the tracked CSSA is not software-readable (checked once
        per enclave instance — the property is structural, not dynamic)."""
        library = app.library
        if library.enclave_id is None:
            return
        key = (library.machine.name, library.enclave_id)
        if key in self._cssa_probed:
            return
        try:
            hw = library.driver.hw(library.enclave_id)
        except ReproError:
            return
        self._cssa_probed.add(key)
        for tcs in hw._tcs.values():
            try:
                tcs.cssa
            except SgxAccessFault:
                return
            self._violate(
                f"enclave {key}: TCS.CSSA was readable by software — the "
                "restore path must never depend on reading it"
            )
            return

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        self.tb.trace.metrics.counter("invariants.violations_total").inc()
        # The violation event carries the span that was active when the
        # property broke — the flight recorder's dump (triggered by this
        # event) then pins the failure to a protocol step, not just a time.
        active = self.tb.trace.tracer.active()
        self.tb.trace.emit(
            "invariant",
            "violation",
            message=message,
            during=active.name if active is not None else None,
        )
        raise InvariantViolation(message)
