"""The enclave SDK and the untrusted SGX library.

"We also provide an SDK for developers so that they can write code running
in an enclave without awareness of our mechanism for migration, e.g., the
control thread" (§I).  The SDK builder injects into every image:

* the control thread (its TCS and its entry),
* entry/exit stubs that maintain the two-phase-checkpointing flags and
  record EENTER's CSSA return value (§IV-B, §IV-C),
* the exception handler that parks interrupted workers during migration,
* the embedded image keypair of §V-B (public plaintext, private sealed).

Developers only write :class:`~repro.sdk.program.EnclaveProgram` entries.
"""

from repro.sdk.builder import SdkBuilder
from repro.sdk.host import HostApplication, WorkerSpec
from repro.sdk.image import EnclaveImage
from repro.sdk.library import SgxLibrary
from repro.sdk.owner import EnclaveOwner
from repro.sdk.program import AtomicEntry, EnclaveProgram, ResumableEntry, counter_program

__all__ = [
    "AtomicEntry",
    "EnclaveImage",
    "EnclaveOwner",
    "EnclaveProgram",
    "HostApplication",
    "ResumableEntry",
    "SdkBuilder",
    "SgxLibrary",
    "WorkerSpec",
    "counter_program",
]
