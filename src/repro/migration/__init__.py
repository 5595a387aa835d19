"""The paper's core contribution: secure enclave (and VM) live migration.

* :mod:`repro.migration.checkpoint` — the checkpoint format (§IV): dumped
  memory pages, per-thread CSSA/flag state, hash-then-encrypt sealing.
* :mod:`repro.migration.protocol` — the protocol as one ordered step
  table, which migrations, rollbacks and crash recovery all drive.
* :mod:`repro.migration.orchestrator` — source/target migration managers
  implementing §III's three operations and §V's defenses.
* :mod:`repro.migration.agent` — the agent-enclave attestation-latency
  optimization (§VI-D).
* :mod:`repro.migration.snapshot` — legal checkpoint/resume with the
  owner-held key and audit log (§V-C).
* :mod:`repro.migration.vm` — whole-VM migration: enclave preparation
  spliced into QEMU pre-copy (§VI-D, Figures 10(b)-(d)).
* :mod:`repro.migration.testbed` — two-machine scenario builder used by
  tests, examples and benchmarks.
"""

from repro.migration.checkpoint import EnclaveCheckpoint, open_checkpoint, seal_checkpoint
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import Testbed, build_testbed

__all__ = [
    "EnclaveCheckpoint",
    "MigrationOrchestrator",
    "Testbed",
    "build_testbed",
    "open_checkpoint",
    "seal_checkpoint",
]
