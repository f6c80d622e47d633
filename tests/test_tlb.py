"""Unit tests for the (VPID, PCID)-tagged TLB."""

import pytest

from repro.hw.tlb import Tlb
from repro.hw.types import Asid


A1 = Asid(vpid=1, pcid=1)
A2 = Asid(vpid=1, pcid=2)
B1 = Asid(vpid=2, pcid=1)


class TestLookupInsert:
    def test_miss_then_hit(self):
        tlb = Tlb()
        assert tlb.lookup(A1, 0x10) is None
        tlb.insert(A1, 0x10, 99)
        assert tlb.lookup(A1, 0x10) == 99
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1

    def test_asid_isolation(self):
        tlb = Tlb()
        tlb.insert(A1, 0x10, 1)
        tlb.insert(A2, 0x10, 2)
        assert tlb.lookup(A1, 0x10) == 1
        assert tlb.lookup(A2, 0x10) == 2

    def test_update_existing(self):
        tlb = Tlb()
        tlb.insert(A1, 0x10, 1)
        tlb.insert(A1, 0x10, 2)
        assert tlb.lookup(A1, 0x10) == 2
        assert len(tlb) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tlb(capacity=0)


class TestEviction:
    def test_fifo_eviction(self):
        tlb = Tlb(capacity=2)
        tlb.insert(A1, 1, 1)
        tlb.insert(A1, 2, 2)
        tlb.insert(A1, 3, 3)
        assert tlb.lookup(A1, 1) is None  # oldest evicted
        assert tlb.lookup(A1, 3) == 3
        assert tlb.stats.evictions == 1

    def test_capacity_bound(self):
        tlb = Tlb(capacity=8)
        for i in range(100):
            tlb.insert(A1, i, i)
        assert len(tlb) == 8


class TestFlushes:
    def _filled(self):
        tlb = Tlb()
        tlb.insert(A1, 1, 1)
        tlb.insert(A2, 2, 2)
        tlb.insert(B1, 3, 3)
        tlb.insert(B1, 4, 4)
        return tlb

    def test_flush_all(self):
        tlb = self._filled()
        assert tlb.flush_all() == 4
        assert len(tlb) == 0

    def test_flush_vpid_spares_other_vms(self):
        tlb = self._filled()
        flushed = tlb.flush_vpid(1)
        assert flushed == 2  # A1:1 and A2:2
        assert tlb.lookup(B1, 3) == 3
        assert tlb.lookup(B1, 4) == 4

    def test_flush_pcid_is_fine_grained(self):
        tlb = self._filled()
        assert tlb.flush_pcid(A1) == 1
        assert tlb.lookup(A2, 2) == 2
        assert tlb.lookup(A1, 1) is None
        assert tlb.lookup(B1, 4) == 4

    def test_flush_page(self):
        tlb = self._filled()
        assert tlb.flush_page(A1, 1) == 1
        assert tlb.flush_page(A1, 1) == 0

    def test_flush_counters(self):
        tlb = self._filled()
        tlb.flush_vpid(1)
        tlb.flush_pcid(B1)
        tlb.flush_page(A1, 4)
        s = tlb.stats
        assert s.flushes_vpid == 1
        assert s.flushes_pcid == 1
        assert s.flushes_page == 1


class TestHugeDemotion:
    def test_flush_page_inside_huge_run_counts_demotion(self):
        """INVLPG on one page of a 2 MiB entry drops the whole entry —
        the stats must show the 512-page reach loss, not a plain flush."""
        tlb = Tlb()
        tlb.insert(A1, 512, frame=0x1000, huge=True)
        assert tlb.flush_page(A1, 700) == 1  # mid-run page
        assert tlb.stats.flushes_huge_demotions == 1
        assert tlb.stats.entries_flushed == 1
        # The entire run is gone, not just the flushed page.
        assert tlb.lookup(A1, 512) is None
        assert tlb.lookup(A1, 700) is None

    def test_4k_flush_is_not_a_demotion(self):
        tlb = Tlb()
        tlb.insert(A1, 1, 1)
        assert tlb.flush_page(A1, 1) == 1
        assert tlb.flush_page(A1, 2) == 0  # clean miss
        assert tlb.stats.flushes_huge_demotions == 0

    def test_demotion_counter_resets(self):
        tlb = Tlb()
        tlb.insert(A1, 512, frame=0x1000, huge=True)
        tlb.flush_page(A1, 513)
        tlb.stats.reset()
        assert tlb.stats.flushes_huge_demotions == 0


class TestStats:
    def test_hit_rate(self):
        tlb = Tlb()
        tlb.insert(A1, 1, 1)
        tlb.lookup(A1, 1)
        tlb.lookup(A1, 2)
        assert tlb.stats.hit_rate == 0.5

    def test_reset(self):
        tlb = Tlb()
        tlb.insert(A1, 1, 1)
        tlb.lookup(A1, 1)
        tlb.stats.reset()
        assert tlb.stats.hits == 0
        assert tlb.stats.lookups == 0
