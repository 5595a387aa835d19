"""An enclave on a machine built outside a testbed.

Every :class:`~repro.machine.Machine` holds a durable store (a testbed's
machines share one; a machine on its own builds its own), so an enclave
launched on a standalone machine journals its protocol transitions,
serves sealed storage and spends its K_migrate's one-use token exactly
as it does on a testbed.
"""

from __future__ import annotations

import pytest

from repro.durability import wal
from repro.errors import KeyReused
from repro.guestos.kernel import GuestOs
from repro.machine import Machine
from repro.sdk import control
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace

from tests.hypervisor.test_overcommit import launch_counter


@pytest.fixture
def standalone():
    clock = VirtualClock()
    machine = Machine("host", clock, EventTrace(clock), DeterministicRng("standalone"))
    vm = machine.hypervisor.create_vm("only", memory_mb=64, vepc_pages=64)
    GuestOs(machine, vm)
    return machine, vm, launch_counter(machine, vm, "standalone")


def test_sealed_storage_through_the_control_thread(standalone):
    machine, _vm, app = standalone
    library = app.library
    assert library.control_call(control.storage_put, "pin", 1234) == 1
    assert library.control_call(control.storage_put, "owner", "alice") == 2
    assert library.control_call(control.storage_get, "pin") == 1234
    assert library.control_call(control.storage_get, "absent", "none") == "none"
    ns = wal.storage_namespace(machine.name, app.image.name)
    assert machine.durable.counter(ns) == 2
    assert b"alice" not in bytes(machine.durable.log(ns))


def test_transitions_are_journaled_and_the_key_is_spent(standalone):
    machine, vm, app = standalone
    library = app.library
    library.on_migration_signal()
    vm.guest_os.run_until(lambda: library.last_checkpoint is not None)
    checkpoint = library.last_checkpoint
    assert machine.durable.blob(checkpoint.blob) == checkpoint.wire
    before = machine.clock.now_ns
    library.control_call(control.source_cancel_migration)
    assert machine.clock.now_ns - before >= machine.costs.journal_commit_ns
    assert library.journal.kinds() == ["checkpoint", "cancelled"]

    # The cancel spent K_migrate's one-use token: the same key is
    # refused a release, as it would be on a testbed.
    sealed = library.journal.last("checkpoint").payload["sealed"]
    aad = control._KEY_RECORD_AAD[control.GO_LIVE_SOURCE]
    key = library.control_call(lambda rt: rt.journal_unseal(sealed, aad))["kmigrate"]
    with pytest.raises(KeyReused):
        library.control_call(control._check_key_token, key, 0)
