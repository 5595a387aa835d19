"""Simulated Intel SGX (v1) hardware.

This package is the substitute for the Skylake SGX part the paper ran on.
It models the pieces of SGX the migration protocol interacts with, with
the same access-control semantics:

* :mod:`repro.sgx.structures`   — SECS, TCS (hardware-only CSSA), SSA,
  page types/permissions, SIGSTRUCT, REPORT, QUOTE.
* :mod:`repro.sgx.epc`          — the Enclave Page Cache (one content
  arena) and the EPCM (parallel columns).
* :mod:`repro.sgx.mee`          — memory encryption engine: pages evicted
  with EWB are sealed under a key that never leaves the CPU.
* :mod:`repro.sgx.measurement`  — MRENCLAVE digest computation.
* :mod:`repro.sgx.cpu`          — the CPU package: per-CPU key material,
  enclave bookkeeping, enclave-mode sessions.
* :mod:`repro.sgx.instructions` — the SGX v1 instruction set.
* :mod:`repro.sgx.enclave`      — hardware-side enclave state.
* :mod:`repro.sgx.attestation`  — local attestation, quoting enclave,
  attestation service (IAS stand-in), enclave owners.
* :mod:`repro.sgx.proposed`     — the paper's §VII-B proposed extensions
  (EPUTKEY / EMIGRATE / ESWPOUT / ... ) for transparent migration.
"""

from repro.sgx.cpu import EnclaveSession, SgxCpu
from repro.sgx.enclave import EnclaveHw
from repro.sgx.epc import Epc
from repro.sgx.structures import (
    PAGE_SIZE,
    PageType,
    Permissions,
    Quote,
    Report,
    SecInfo,
    Secs,
    SigStruct,
    Tcs,
)

__all__ = [
    "Epc",
    "EnclaveHw",
    "EnclaveSession",
    "PAGE_SIZE",
    "PageType",
    "Permissions",
    "Quote",
    "Report",
    "SecInfo",
    "Secs",
    "SgxCpu",
    "SigStruct",
    "Tcs",
]
