"""Enclave images: the buildable, measurable unit.

An image is what EINIT measures and what both machines must share for
migration ("creates and initializes a virgin enclave using the same image
of the migrated enclave", §III Step-1).  It fixes the memory layout — the
paper relies on this: "The memory layout of an enclave is decided during
development.  Our SDK puts the global flag at the beginning of enclave, so
the address of the global flag can help the control thread to determine
the address range of the enclave" (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, SecInfo, SigStruct

# Control-block offsets (page 0 of every image).
GLOBAL_FLAG_OFF = 0       # 0 = clear, 1 = migration in progress
RESTORE_MODE_OFF = 8      # 1 while the target replays CSSA
ATTESTED_OFF = 16         # 1 once the owner has provisioned secrets
CHANNEL_STATE_OFF = 24    # see control thread: 0 none / 1 open / 2 spent
GO_LIVE_TOKEN_OFF = 32     # value go-live moves K_migrate's one-use token to (0: none)
TCS_RECORDS_OFF = 64      # per-TCS records start here
TCS_RECORD_STRIDE = 64
TCS_LOCAL_FLAG_OFF = 0    # 0 free / 1 busy / 2 spin
TCS_CSSA_EENTER_OFF = 8   # rax recorded by the entry stub
TCS_REPLAY_COUNT_OFF = 16  # EENTERs observed while in restore mode
TCS_PREV_FLAG_OFF = 24    # saved flag for the exit stub to restore

# Local flag values.
FLAG_FREE = 0
FLAG_BUSY = 1
FLAG_SPIN = 2

# Entry names the SDK injects (not developer-visible).
DISPATCH_ENTRY = "__dispatch__"
CONTROL_ENTRY = "__control__"

# Built-in object-store slots the SDK reserves.
OBJ_IMAGE_PRIVKEY = "__image_privkey__"
OBJ_BOOT = "__boot__"
OBJ_CHANNEL = "__channel__"


@dataclass(frozen=True)
class TcsTemplate:
    """Build-time description of one TCS."""

    index: int
    vaddr: int
    oentry: str
    ossa: int
    nssa: int
    role: str  # "worker" | "control"


@dataclass(frozen=True)
class PageSpec:
    """Build-time description of one enclave page for EADD/EEXTEND."""

    vaddr: int
    sec_info: SecInfo
    content: bytes = b""
    tcs_index: int | None = None  # set for TCS pages
    measure: bool = True


@dataclass
class EnclaveLayout:
    """Address map shared by the builder, runtime and control thread."""

    base: int
    size: int
    n_tcs: int
    nssa: int
    globals_table: dict[str, int] = field(default_factory=dict)
    #: name -> (vaddr, capacity_bytes) for the object store
    objects_table: dict[str, tuple[int, int]] = field(default_factory=dict)
    heap_base: int = 0
    heap_bytes: int = 0
    #: The measured page carrying the §V-B embedded keypair.
    key_page_vaddr: int = 0
    key_page_len: int = 0

    # ------------------------------------------------------- control block
    def global_flag_vaddr(self) -> int:
        return self.base + GLOBAL_FLAG_OFF

    def restore_mode_vaddr(self) -> int:
        return self.base + RESTORE_MODE_OFF

    def attested_vaddr(self) -> int:
        return self.base + ATTESTED_OFF

    def channel_state_vaddr(self) -> int:
        return self.base + CHANNEL_STATE_OFF

    def go_live_token_vaddr(self) -> int:
        return self.base + GO_LIVE_TOKEN_OFF

    def tcs_record_vaddr(self, tcs_index: int, field_off: int) -> int:
        return self.base + TCS_RECORDS_OFF + tcs_index * TCS_RECORD_STRIDE + field_off

    # ------------------------------------------------------- object store
    def object_slot(self, name: str) -> tuple[int, int]:
        try:
            return self.objects_table[name]
        except KeyError:
            raise KeyError(f"image has no object slot {name!r}") from None

    def global_slot(self, name: str) -> int:
        try:
            return self.globals_table[name]
        except KeyError:
            raise KeyError(f"image has no global slot {name!r}") from None


@dataclass
class EnclaveImage:
    """Everything needed to instantiate one enclave, on any machine."""

    name: str
    code_id: str
    layout: EnclaveLayout
    pages: list[PageSpec]
    tcs_templates: list[TcsTemplate]
    sigstruct: SigStruct
    #: The image keypair of §V-B: public half embedded in plaintext (also
    #: inside a measured page); private half embedded only as ciphertext.
    image_public_n: int
    image_public_e: int

    @property
    def mrenclave(self) -> bytes:
        return self.sigstruct.mrenclave

    @property
    def n_workers(self) -> int:
        return sum(1 for t in self.tcs_templates if t.role == "worker")

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    def worker_tcs(self, worker_index: int) -> TcsTemplate:
        workers = [t for t in self.tcs_templates if t.role == "worker"]
        return workers[worker_index]

    @property
    def control_tcs(self) -> TcsTemplate:
        return next(t for t in self.tcs_templates if t.role == "control")

    def used_reg_vaddrs(self) -> list[int]:
        """The REG pages a checkpoint must carry (everything but TCS)."""
        return [p.vaddr for p in self.pages if p.sec_info.page_type is PageType.REG]

    def readable_reg_vaddrs(self) -> list[int]:
        """REG pages the control thread can actually dump (SGX v1 limit:
        executable+writable+non-readable pages cannot be read, §IV-B)."""
        return [
            p.vaddr
            for p in self.pages
            if p.sec_info.page_type is PageType.REG
            and Permissions.R in p.sec_info.permissions
        ]
