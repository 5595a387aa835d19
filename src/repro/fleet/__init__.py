"""Fleet-scale migration runs: N seeded migrations against one downtime budget.

The paper evaluates one migration at a time; the ROADMAP's north star is
a datacenter scheduler draining hundreds of enclaves concurrently.  This
package is the first concrete step: a deterministic multi-migration
runner (:class:`~repro.fleet.runner.FleetRunner`) that reads each
migration's downtime from its own testbed, checks it against
:data:`~repro.fleet.runner.DOWNTIME_BUDGET_NS`, and feeds a curses-free
live console (:class:`~repro.fleet.console.FleetConsole`) — surfaced as
``repro fleet``.
"""

from repro.fleet.blame import StragglerReport, blame_report
from repro.fleet.console import FleetConsole
from repro.fleet.hosts import Admission, HostModel, HostSpec, HostUtilization
from repro.fleet.runner import (
    FleetConfig,
    FleetReport,
    FleetRunner,
    MigrationRecord,
    write_contention_bench,
    write_fleet_bench,
)

__all__ = [
    "Admission",
    "FleetConfig",
    "FleetConsole",
    "FleetReport",
    "FleetRunner",
    "HostModel",
    "HostSpec",
    "HostUtilization",
    "MigrationRecord",
    "StragglerReport",
    "blame_report",
    "write_contention_bench",
    "write_fleet_bench",
]
