"""EPC pages built on first allocation behave like an eagerly built EPC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.migration.testbed import build_testbed
from repro.sgx import epc as epc_module
from repro.sgx.epc import Epc
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions

from tests.conftest import build_counter_app

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
            got = _outcome(
                lambda: epc.alloc(arg, 0x1000, PageType.REG, Permissions.RW).index
            )
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
            assert not epc.entry(index).valid
            assert bytes(epc.page(index).data) == bytes(PAGE_SIZE)


def test_out_of_range_indices_raise():
    epc = Epc(8)
    for call in (epc.page, epc.entry, epc.free):
        with pytest.raises(IndexError):
            call(8)


def test_a_testbed_builds_only_the_pages_it_allocates(monkeypatch):
    built = []
    for cls in (epc_module.EpcPage, epc_module.EpcmEntry):
        original = cls.__init__

        def counting_init(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    tb = build_testbed(seed=7)
    source, target = tb.source.cpu.epc, tb.target.cpu.epc
    # Set-up allocates one page per machine, the guest kernel's first
    # Version Array page; none of the other 16,383 exists yet.
    assert source.used_count == target.used_count == 1
    assert len(built) == 2 * 2
    build_counter_app(tb)
    assert source.used_count > 1
    assert len(built) == 2 * (source.used_count + target.used_count)
