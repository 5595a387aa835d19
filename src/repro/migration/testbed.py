"""Two-machine testbed: the paper's experimental setup in one object.

Builds the source and target machines (each: SGX CPU + hypervisor + QEMU
+ one guest VM with a guest OS), the shared attestation service, the
network, the SDK builder and an enclave owner — wired to one virtual
clock so every experiment is deterministic and timing-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import role_keypair
from repro.durability.store import DurableStore
from repro.guestos.kernel import GuestOs
from repro.invariants.monitor import InvariantMonitor
from repro.hypervisor.vm import Vm
from repro.machine import Machine
from repro.net.network import Network
from repro.sdk.builder import SdkBuilder
from repro.sdk.owner import EnclaveOwner
from repro.sgx.attestation import AttestationService
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace
from repro.telemetry import Telemetry


@dataclass
class Testbed:
    """Everything a migration scenario needs."""

    clock: VirtualClock
    trace: EventTrace
    rng: DeterministicRng
    costs: CostModel
    network: Network
    ias: AttestationService
    source: Machine
    target: Machine
    source_vm: Vm
    target_vm: Vm
    source_os: GuestOs
    target_os: GuestOs
    builder: SdkBuilder
    owner: EnclaveOwner
    #: Span tracer + metrics registry of ``trace``.
    telemetry: Telemetry
    #: Stable storage for write-ahead journals; survives party crashes.
    durable: DurableStore = field(default_factory=DurableStore)
    #: Live safety-invariant monitor; attached by :func:`build_testbed`.
    monitor: InvariantMonitor | None = None


def build_testbed(
    seed: int | str = 0,
    costs: CostModel = DEFAULT_COSTS,
    n_vcpus: int = 4,
    memory_mb: int = 2048,
    vepc_pages: int = 4096,
    epc_pages: int = 16384,
    working_set_pages: int | None = None,
    dirty_rate_pps: int = 2_000,
    malicious_scheduler: bool = False,
) -> Testbed:
    """Build the two-laptop setup of §VIII.

    ``malicious_scheduler`` makes the *source* guest OS lie about
    stopping threads (the §IV-A adversary); everything else stays honest
    so tests can show the attack is real and the defense works.
    """
    clock = VirtualClock()
    trace = EventTrace(clock)
    telemetry = Telemetry(clock, trace)
    rng = DeterministicRng(seed)
    network = Network(clock, costs, trace)

    ias_key = KeyPair(role_keypair("ias"), "ias")
    ias = AttestationService(clock, costs, ias_key)

    source = Machine("source", clock, trace, rng, costs, epc_pages=epc_pages)
    target = Machine("target", clock, trace, rng, costs, epc_pages=epc_pages)
    source.provision(ias)
    target.provision(ias)

    source_vm = source.hypervisor.create_vm(
        "vm-src",
        n_vcpus=n_vcpus,
        memory_mb=memory_mb,
        vepc_pages=vepc_pages,
        working_set_pages=working_set_pages,
        dirty_rate_pps=dirty_rate_pps,
    )
    target_vm = target.hypervisor.create_vm(
        "vm-tgt",
        n_vcpus=n_vcpus,
        memory_mb=memory_mb,
        vepc_pages=vepc_pages,
        working_set_pages=working_set_pages,
        dirty_rate_pps=dirty_rate_pps,
    )
    source_os = GuestOs(source, source_vm, malicious_scheduler=malicious_scheduler)
    target_os = GuestOs(target, target_vm)

    vendor_key = KeyPair(role_keypair("vendor"), "vendor")
    builder = SdkBuilder(vendor_key, rng.fork("builder"))
    owner = EnclaveOwner("owner", ias, clock, costs, rng.fork("owner"))

    testbed = Testbed(
        clock=clock,
        trace=trace,
        rng=rng,
        costs=costs,
        network=network,
        ias=ias,
        source=source,
        target=target,
        source_vm=source_vm,
        target_vm=target_vm,
        source_os=source_os,
        target_os=target_os,
        builder=builder,
        owner=owner,
        telemetry=telemetry,
    )
    # Durable journals + the live invariant monitor are part of the
    # standard setup: every enclave library built on these machines
    # journals its state transitions, and the monitor watches every run.
    source.durable = target.durable = testbed.durable
    # Journal commits charge their modelled fsync latency to the shared
    # clock and report it to the shared registry.
    testbed.durable.clock = clock
    testbed.durable.metrics = trace.metrics
    testbed.durable.commit_cost_ns = costs.journal_commit_ns
    # Journal commits also surface as payload-free trace events, so the
    # flight recorder's per-party rings include durable transitions.
    testbed.durable.trace = trace
    testbed.monitor = InvariantMonitor(testbed)
    testbed.monitor.attach()
    return testbed
