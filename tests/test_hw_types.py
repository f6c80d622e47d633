"""Unit tests for the hardware vocabulary (repro.hw.types)."""

import pickle

import pytest

from repro.guest.addrspace import SegfaultError
from repro.hw.types import (
    ENTRIES_PER_TABLE,
    NUM_PCIDS,
    PAGE_SIZE,
    PT_LEVELS,
    AccessType,
    Asid,
    AsidTable,
    EptViolation,
    PageFault,
    PageFaultError,
    Ring,
    VirtualRing,
    page_base,
    page_number,
    page_offset,
    pages_spanned,
    table_index,
)


class TestPageMath:
    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE - 1) == 0
        assert page_number(PAGE_SIZE) == 1
        assert page_number(10 * PAGE_SIZE + 17) == 10

    def test_page_base(self):
        assert page_base(PAGE_SIZE + 17) == PAGE_SIZE
        assert page_base(0) == 0

    def test_page_offset(self):
        assert page_offset(PAGE_SIZE + 17) == 17
        assert page_offset(PAGE_SIZE) == 0

    def test_pages_spanned_empty(self):
        assert pages_spanned(0, 0) == 0
        assert pages_spanned(100, -5) == 0

    def test_pages_spanned_single(self):
        assert pages_spanned(0, 1) == 1
        assert pages_spanned(0, PAGE_SIZE) == 1

    def test_pages_spanned_straddles(self):
        # One byte into the next page -> two pages.
        assert pages_spanned(PAGE_SIZE - 1, 2) == 2
        assert pages_spanned(0, PAGE_SIZE + 1) == 2

    def test_pages_spanned_large(self):
        assert pages_spanned(0, 4 * PAGE_SIZE) == 4


class TestTableIndex:
    def test_level_bounds(self):
        with pytest.raises(ValueError):
            table_index(0, 0)
        with pytest.raises(ValueError):
            table_index(0, PT_LEVELS + 1)

    def test_leaf_index(self):
        assert table_index(0, 1) == 0
        assert table_index(511, 1) == 511
        assert table_index(512, 1) == 0

    def test_upper_levels(self):
        vpn = 512  # second entry at level 2
        assert table_index(vpn, 2) == 1
        assert table_index(vpn, 3) == 0

    def test_index_range(self):
        for level in range(1, PT_LEVELS + 1):
            assert 0 <= table_index(0xDEADBEEF, level) < ENTRIES_PER_TABLE


class TestAsid:
    def test_valid(self):
        a = Asid(vpid=1, pcid=3)
        assert a.vpid == 1 and a.pcid == 3

    def test_negative_vpid(self):
        with pytest.raises(ValueError):
            Asid(vpid=-1, pcid=0)

    def test_pcid_range(self):
        with pytest.raises(ValueError):
            Asid(vpid=0, pcid=NUM_PCIDS)
        with pytest.raises(ValueError):
            Asid(vpid=0, pcid=-1)

    def test_hashable_and_eq(self):
        assert Asid(1, 2) == Asid(1, 2)
        assert len({Asid(1, 2), Asid(1, 2), Asid(1, 3)}) == 2

    def test_table_shares_one_tag_per_pcid(self):
        table = AsidTable(vpid=1)
        asid = table[2]
        assert asid is table[2] and asid == Asid(1, 2)
        with pytest.raises(ValueError):
            table[NUM_PCIDS]


class TestFaultDescriptors:
    def test_protection_flag(self):
        f = PageFault(vaddr=0x1000, access=AccessType.WRITE,
                      error=PageFaultError.PRESENT | PageFaultError.WRITE,
                      level=1)
        assert f.is_protection
        assert f.is_write

    def test_miss_fault(self):
        f = PageFault(vaddr=0x1000, access=AccessType.READ,
                      error=PageFaultError.USER, level=3)
        assert not f.is_protection
        assert not f.is_write
        assert f.level == 3


def _pickled_state(obj):
    """What a pickle must carry: a descriptor's fields, or an
    exception's args and attributes."""
    if isinstance(obj, Exception):
        return obj.args, vars(obj)
    return obj._asdict()


class TestFaultCarriers:
    """The fault descriptors, and the error the guest kernel raises,
    survive pickling (``--jobs`` workers send them across processes)
    with the same message."""

    @pytest.mark.parametrize("make", [
        lambda: PageFault(
            vaddr=0x5000, access=AccessType.WRITE,
            error=PageFaultError.PRESENT | PageFaultError.WRITE, level=1),
        lambda: EptViolation(gpa=0x7000, access=AccessType.READ, level=3),
        lambda: SegfaultError(0xDEAD000),
    ], ids=["page-fault", "ept-violation", "segfault"])
    def test_pickle_round_trip(self, make):
        obj = make()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        assert str(back) == str(obj)
        assert _pickled_state(back) == _pickled_state(obj)

    def test_messages(self):
        fault = PageFault(vaddr=0x5000, access=AccessType.WRITE,
                          error=PageFaultError.PRESENT | PageFaultError.WRITE,
                          level=1)
        assert str(fault) == (
            "page fault @ 0x5000 (PageFaultError.PRESENT|WRITE)")
        assert str(
            EptViolation(gpa=0x7000, access=AccessType.READ, level=3)
        ) == "EPT violation @ gpa 0x7000"
        assert str(SegfaultError(0xDEAD000)) == "segmentation fault at 0xdead000"

    def test_descriptors_are_immutable(self):
        fault = PageFault(vaddr=0x5000, access=AccessType.READ,
                          error=PageFaultError.USER, level=2)
        with pytest.raises(AttributeError):
            fault.level = 1


class TestRings:
    def test_ring_values(self):
        assert int(Ring.RING0) == 0
        assert int(Ring.RING3) == 3

    def test_virtual_rings(self):
        assert int(VirtualRing.V_RING0) == 0
        assert int(VirtualRing.V_RING3) == 3
