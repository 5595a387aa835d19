"""The SDK builder: turns a developer program into an enclave image.

"Our SDK hides the details ... The SDK also adds the code of control
thread, and another TCS for invoking the thread, without the developers'
involvement" (§VI-C).  Concretely, the builder:

* lays out the control block (global flag at the enclave base, per-TCS
  flag/CSSA records) — the two-phase-checkpointing state of §IV-B;
* adds one TCS + stack + SSA region per worker thread, plus one more TCS
  for the injected control thread;
* serializes a code manifest page so MRENCLAVE covers the program;
* embeds the §V-B image keypair (public plaintext, private ciphertext);
* computes the measurement the same way the hardware will and signs the
  SIGSTRUCT with the vendor key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.authenc import seal_value
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rsa import role_keypair
from repro.sdk.image import (
    CONTROL_ENTRY,
    DISPATCH_ENTRY,
    OBJ_BOOT,
    OBJ_CHANNEL,
    OBJ_IMAGE_PRIVKEY,
    EnclaveImage,
    EnclaveLayout,
    PageSpec,
    TcsTemplate,
)
from repro.sdk.program import EnclaveProgram, register_program
from repro.serde import pack
from repro.sgx.measurement import MeasurementLog
from repro.sgx.structures import (
    DEFAULT_NSSA,
    PAGE_SIZE,
    PageType,
    Permissions,
    SecInfo,
    SigStruct,
    Tcs,
)
from repro.sim.rng import DeterministicRng

DEFAULT_BASE = 0x1000_0000

#: Reserved object-store slots the SDK always provides (1 page each).
_BUILTIN_OBJECTS = (OBJ_IMAGE_PRIVKEY, OBJ_BOOT, OBJ_CHANNEL)
#: The SECINFO of every read-write page: one shared immutable object, so
#: its encoding and EPCM codes are worked out once, not once per page.
_RW = SecInfo(PageType.REG, Permissions.RW)


@dataclass
class BuiltImage:
    """Builder output: the image plus the owner-side secrets."""

    image: EnclaveImage
    #: Plaintext image private key — held by the *owner*, delivered to
    #: enclaves only over attested channels (§V-B).
    image_private_key: KeyPair


class SdkBuilder:
    """Builds signed enclave images from programs."""

    def __init__(self, vendor_key: KeyPair, rng: DeterministicRng) -> None:
        self._vendor_key = vendor_key
        self._rng = rng

    def build(
        self,
        name: str,
        program: EnclaveProgram,
        n_workers: int = 2,
        heap_pages: int = 4,
        data_objects: dict[str, int] | None = None,
        global_names: tuple[str, ...] = (),
        nssa: int = DEFAULT_NSSA,
        base: int = DEFAULT_BASE,
        add_unreadable_page: bool = False,
    ) -> BuiltImage:
        """Build, measure and sign an image for ``program``.

        ``data_objects`` maps object-store slot names to capacities in
        bytes; ``global_names`` get one u64 slot each.  Setting
        ``add_unreadable_page`` adds a W+X (non-readable) page, the SGX v1
        corner the paper calls out as unmigratable (§IV-B).
        """
        register_program(program)
        rng = self._rng.fork(f"image/{name}")
        image_key = KeyPair(role_keypair(f"image/{name}"), f"{name}/image")

        pages: list[PageSpec] = []
        cursor = base

        def take_page(spec: PageSpec) -> int:
            nonlocal cursor
            pages.append(spec)
            cursor += PAGE_SIZE
            return spec.vaddr

        # Page 0: control block (global flag lives at offset 0).
        take_page(PageSpec(cursor, _RW))

        # Code manifest page(s): measured stand-in for the text segment.
        manifest = pack(
            {"code_id": program.code_id, "entries": sorted(program.entries)}
        )
        for off in range(0, max(len(manifest), 1), PAGE_SIZE):
            take_page(
                PageSpec(
                    cursor,
                    SecInfo(PageType.REG, Permissions.RX),
                    content=manifest[off : off + PAGE_SIZE],
                )
            )

        # Key page: §V-B embedded keypair.  The private half is sealed to
        # an owner-held key; it is opaque ciphertext to everyone else.
        owner_seal = SymmetricKey(rng.bytes(32), f"{name}/owner-seal")
        private = image_key.private
        priv_ct = seal_value(
            owner_seal, {"n": private.n, "e": private.e, "d": private.d}, rng.bytes(16), b""
        )
        key_page = pack(
            {"pub_n": image_key.public.n, "pub_e": image_key.public.e, "priv_ct": priv_ct}
        )
        key_page_vaddr = cursor
        take_page(
            PageSpec(cursor, SecInfo(PageType.REG, Permissions.R), content=key_page[:PAGE_SIZE])
        )

        # Globals page: one u64 slot per name.
        globals_table: dict[str, int] = {}
        if global_names:
            globals_base = cursor
            take_page(PageSpec(cursor, _RW))
            for i, gname in enumerate(global_names):
                if (i + 1) * 8 > PAGE_SIZE:
                    raise ValueError("too many globals for one page")
                globals_table[gname] = globals_base + i * 8

        # Object store: built-ins first, then developer slots.
        objects_table: dict[str, tuple[int, int]] = {}
        all_objects = {obj: PAGE_SIZE for obj in _BUILTIN_OBJECTS}
        all_objects.update(data_objects or {})
        for oname, capacity in all_objects.items():
            n_pages = max(1, -(-capacity // PAGE_SIZE))
            objects_table[oname] = (cursor, n_pages * PAGE_SIZE)
            for _ in range(n_pages):
                take_page(PageSpec(cursor, _RW))

        # Heap.
        heap_base = cursor
        for _ in range(heap_pages):
            take_page(PageSpec(cursor, _RW))

        # The SGX v1 unmigratable corner: a writable+executable page the
        # control thread cannot read.
        if add_unreadable_page:
            take_page(
                PageSpec(cursor, SecInfo(PageType.REG, Permissions.W | Permissions.X))
            )

        # Per-thread resources: stacks, SSA regions, then the TCS pages.
        n_tcs = n_workers + 1  # + control thread
        stack_bases = []
        for _ in range(n_tcs):
            stack_bases.append(take_page(PageSpec(cursor, _RW)))
        ssa_bases = []
        for _ in range(n_tcs):
            ssa_bases.append(cursor)
            for _ in range(nssa):
                take_page(PageSpec(cursor, _RW))

        tcs_templates: list[TcsTemplate] = []
        for i in range(n_tcs):
            role = "worker" if i < n_workers else "control"
            oentry = DISPATCH_ENTRY if role == "worker" else CONTROL_ENTRY
            template = TcsTemplate(
                index=i, vaddr=cursor, oentry=oentry, ossa=ssa_bases[i], nssa=nssa, role=role
            )
            tcs_templates.append(template)
            take_page(
                PageSpec(
                    cursor,
                    SecInfo(PageType.TCS, Permissions.NONE),
                    tcs_index=i,
                )
            )

        size = cursor - base
        layout = EnclaveLayout(
            base=base,
            size=size,
            n_tcs=n_tcs,
            nssa=nssa,
            globals_table=globals_table,
            objects_table=objects_table,
            heap_base=heap_base,
            heap_bytes=heap_pages * PAGE_SIZE,
            key_page_vaddr=key_page_vaddr,
            key_page_len=len(key_page),
        )

        mrenclave = self._measure(base, size, pages, tcs_templates)
        body = SigStruct(mrenclave, self._vendor_key.label, self._vendor_key.public.n, b"")
        sigstruct = SigStruct(
            mrenclave,
            self._vendor_key.label,
            self._vendor_key.public.n,
            self._vendor_key.private.sign(body.signed_body()),
        )
        image = EnclaveImage(
            name=name,
            code_id=program.code_id,
            layout=layout,
            pages=pages,
            tcs_templates=tcs_templates,
            sigstruct=sigstruct,
            image_public_n=image_key.public.n,
            image_public_e=image_key.public.e,
        )
        return BuiltImage(image=image, image_private_key=image_key)

    @staticmethod
    def _measure(
        base: int, size: int, pages: list[PageSpec], tcs_templates: list[TcsTemplate]
    ) -> bytes:
        """Compute the MRENCLAVE the hardware will produce for this image.

        Replays the exact ECREATE/EADD/EEXTEND sequence the driver issues,
        using the same :class:`MeasurementLog`, so EINIT's comparison with
        the SIGSTRUCT is an end-to-end check rather than a tautology.
        """
        log = MeasurementLog()
        log.ecreate(base, size)
        def content(spec: PageSpec) -> bytes | Tcs:
            if spec.tcs_index is None:
                return spec.content
            template = tcs_templates[spec.tcs_index]
            return Tcs(template.vaddr, template.oentry, template.ossa, template.nssa)

        log.add_run(
            np.array([spec.vaddr for spec in pages], dtype=np.uint64),
            np.frombuffer(
                b"".join(spec.sec_info.to_bytes() for spec in pages), dtype=np.uint8
            ).reshape(-1, 64),
            np.array([spec.measure for spec in pages], dtype=bool),
            [content(spec) for spec in pages],
        )
        return log.finalize()
