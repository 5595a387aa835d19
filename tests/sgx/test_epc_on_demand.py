"""The lazily backed EPC arena behaves like an eagerly built EPC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.migration.testbed import build_testbed
from repro.sgx.epc import Epc
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions

from tests.conftest import build_counter_app
from tests.sgx.conftest import resident_pages

N_PAGES = 10
OWNERS = (1, 2, 3)


class EagerFreeList:
    """The allocator as it was with every page built up front."""

    def __init__(self, n_pages: int) -> None:
        self.free = list(range(n_pages - 1, -1, -1))
        self.owner: dict[int, int] = {}

    def alloc(self, eid: int) -> int:
        if not self.free:
            raise SgxEpcExhausted("no free EPC page")
        index = self.free.pop()
        self.owner[index] = eid
        return index

    def release(self, index: int) -> None:
        if index not in self.owner:
            raise SgxInstructionFault(f"EPC page {index} is not allocated")
        del self.owner[index]
        self.free.append(index)


def _outcome(call):
    """What a call returned, or the type of what it raised."""
    try:
        return call()
    except (SgxEpcExhausted, SgxInstructionFault) as exc:
        return type(exc)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.sampled_from(OWNERS)),
        st.tuples(st.just("free"), st.integers(0, N_PAGES - 1)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_lazy_epc_matches_the_eager_free_list(steps):
    epc, model = Epc(N_PAGES), EagerFreeList(N_PAGES)
    ever_allocated: set[int] = set()
    for kind, arg in steps:
        if kind == "alloc":
            got = _outcome(lambda: epc.alloc(arg, 0x1000, PageType.REG, Permissions.RW))
            assert got == _outcome(lambda: model.alloc(arg))
            if isinstance(got, int):
                ever_allocated.add(got)
        else:
            assert _outcome(lambda: epc.free(arg)) == _outcome(lambda: model.release(arg))
        assert epc.free_count == len(model.free)
        assert epc.used_count == len(model.owner)
        for eid in OWNERS:
            assert epc.pages_of(eid) == sorted(i for i, o in model.owner.items() if o == eid)
        for index in set(range(N_PAGES)) - ever_allocated:
            assert not epc.is_valid(index)
            assert epc.read(index, 0, PAGE_SIZE) == bytes(PAGE_SIZE)


def test_out_of_range_indices_raise():
    epc = Epc(8)
    calls = (
        epc.is_valid, epc.page_type, epc.owner, epc.vaddr, epc.permissions, epc.free,
        lambda index: epc.read(index, 0, 1), lambda index: epc.write(index, 0, b"x"),
    )
    for call in calls:
        for index in (8, -1):
            with pytest.raises(IndexError):
                call(index)


def test_a_testbed_builds_only_the_pages_it_allocates():
    tb = build_testbed(seed=7)
    source, target = tb.source.cpu.epc, tb.target.cpu.epc
    # Set-up allocates one page per machine, the guest kernel's first
    # Version Array page, and writes none: no arena page is backed.
    assert source.used_count == target.used_count == 1
    assert resident_pages(source) == resident_pages(target) == []
    build_counter_app(tb)
    assert source.used_count > 1
    # Only pages the build allocated were touched; the other 16,000-odd
    # arena pages are still unbacked zero.
    assert 0 < len(resident_pages(source)) <= source.used_count
    assert max(resident_pages(source)) < source.used_count
    assert resident_pages(target) == []
