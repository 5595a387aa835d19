"""Fixtures for exercising the SGX hardware model directly."""

from __future__ import annotations

import ctypes
import struct

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import generate_rsa_keypair
from repro.sgx import instructions as isa
from repro.sgx.cpu import SgxCpu
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, SecInfo, SigStruct, Tcs
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.trace import EventTrace

BASE = 0x2000_0000


@pytest.fixture
def cpu():
    clock = VirtualClock()
    return SgxCpu(
        "test-cpu", clock, DEFAULT_COSTS, EventTrace(clock), DeterministicRng("cpu"), epc_pages=256
    )


@pytest.fixture
def second_cpu():
    clock = VirtualClock()
    return SgxCpu(
        "other-cpu", clock, DEFAULT_COSTS, EventTrace(clock), DeterministicRng("cpu2"), epc_pages=256
    )


@pytest.fixture
def vendor():
    return KeyPair(generate_rsa_keypair(DeterministicRng("vendor-test")), "vendor")


def build_raw_enclave(cpu, vendor, n_data_pages=2, nssa=3, data=b"hello enclave"):
    """Hand-build a minimal enclave: data pages, one TCS, SSA frames."""
    n_pages = n_data_pages + 1 + nssa
    enclave = isa.ecreate(cpu, BASE, (n_pages + 2) * PAGE_SIZE)
    vaddr = BASE
    for i in range(n_data_pages):
        content = data if i == 0 else b""
        isa.eadd(cpu, enclave, vaddr, content, SecInfo(PageType.REG, Permissions.RW))
        vaddr += PAGE_SIZE
    ossa = vaddr
    for _ in range(nssa):
        isa.eadd(cpu, enclave, vaddr, b"", SecInfo(PageType.REG, Permissions.RW))
        vaddr += PAGE_SIZE
    tcs_vaddr = vaddr
    tcs = Tcs(tcs_vaddr, "main", ossa=ossa, nssa=nssa)
    isa.eadd(cpu, enclave, tcs_vaddr, tcs, SecInfo(PageType.TCS, Permissions.NONE))
    for page in enclave.mapped_vaddrs():
        isa.eextend(cpu, enclave, page)
    mrenclave = enclave.measurement.value
    unsigned = SigStruct(mrenclave, "vendor", vendor.public.n, b"")
    sigstruct = SigStruct(
        mrenclave, "vendor", vendor.public.n, vendor.private.sign(unsigned.signed_body())
    )
    isa.einit(cpu, enclave, sigstruct)
    return enclave, tcs_vaddr


_libc = ctypes.CDLL(None, use_errno=True)
_libc.mincore.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_ubyte)]


def resident_pages(epc) -> list[int]:
    """Indices of the EPC pages whose arena memory the host has backed
    (``mincore``): a page nothing has read or written is not backed."""
    base = ctypes.addressof(ctypes.c_char.from_buffer(epc._map))
    vec = (ctypes.c_ubyte * epc.n_pages)()
    if _libc.mincore(ctypes.c_void_p(base), ctypes.c_size_t(len(epc._map)), vec):
        raise OSError(ctypes.get_errno(), "mincore failed")
    return [i for i in range(epc.n_pages) if vec[i] & 1]


def private_pages(epc) -> list[int]:
    """Indices of the EPC pages that hold memory of their own: written
    since the host last zeroed them.  A page that was only read maps the
    host's shared zero page, which ``/proc/self/pagemap`` reports as
    present but not exclusively mapped (bit 56), so it is not counted."""
    base = ctypes.addressof(ctypes.c_char.from_buffer(epc._map))
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(base // PAGE_SIZE * 8)
        entries = struct.unpack(f"<{epc.n_pages}Q", pagemap.read(8 * epc.n_pages))
    return [i for i, entry in enumerate(entries) if entry >> 56 & 1]
