"""Unit tests for the software MMU (1-D and 2-D walks)."""

import pytest

from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable, Pte
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, EptViolation, PageFault
from repro.sim.clock import Clock


ASID = Asid(vpid=1, pcid=1)


@pytest.fixture
def env():
    host = PhysicalMemory("host", 16 * MIB)
    guest = PhysicalMemory("guest", 16 * MIB)
    tlb = Tlb()
    mmu = Mmu(tlb, EventLog(), DEFAULT_COSTS)
    return host, guest, tlb, mmu


class Test1D:
    def test_walk_and_fill(self, env):
        host, guest, tlb, mmu = env
        pt = PageTable(host, "pt")
        pt.map(0x10, Pte(frame=7))
        clock = Clock()
        assert mmu.access_1d(clock, ASID, pt, 0x10, AccessType.READ, True) == 7
        walk_cost = clock.now
        assert walk_cost == pt.levels * DEFAULT_COSTS.walk_step_1d
        # Second access: TLB hit, 1 ns.
        mmu.access_1d(clock, ASID, pt, 0x10, AccessType.READ, True)
        assert clock.now == walk_cost + DEFAULT_COSTS.tlb_hit

    def test_fault_charges_walk(self, env):
        host, guest, tlb, mmu = env
        pt = PageTable(host, "pt")
        clock = Clock()
        assert mmu.access_1d(clock, ASID, pt, 0x10, AccessType.READ, True) == -1
        assert type(mmu.fault) is PageFault
        assert clock.now == pt.levels * DEFAULT_COSTS.walk_step_1d
        # No TLB pollution on fault.
        assert len(tlb) == 0

    def test_global_caching_flag(self, env):
        host, guest, tlb, mmu = env
        pt = PageTable(host, "pt")
        pt.map(0x10, Pte(frame=7, global_=True))
        mmu.access_1d(Clock(), ASID, pt, 0x10, AccessType.READ, True,
                      cache_global=True)
        # Entry survives a VPID flush because it was inserted global.
        tlb.flush_vpid(ASID.vpid)
        assert tlb.lookup(ASID, 0x10) == 7


class Test2D:
    def _guest_tables(self, env):
        host, guest, tlb, mmu = env
        gpt = PageTable(guest, "gpt")
        ept = PageTable(host, "ept")
        return gpt, ept

    def _warm_ept(self, ept, gpt, host, leaf_gfn):
        for node in gpt.node_frames():
            if ept.lookup(node) is None:
                ept.map(node, Pte(frame=host.alloc_frame(), user=False))
        if ept.lookup(leaf_gfn) is None:
            ept.map(leaf_gfn, Pte(frame=host.alloc_frame(), user=False))

    def test_guest_fault_raised_first(self, env):
        host, guest, tlb, mmu = env
        gpt, ept = self._guest_tables(env)
        assert mmu.access_2d(Clock(), ASID, gpt, ept, 0x10,
                             AccessType.READ, True) == -1
        assert type(mmu.fault) is PageFault

    def test_ept_violation_on_table_frames(self, env):
        host, guest, tlb, mmu = env
        gpt, ept = self._guest_tables(env)
        gpt.map(0x10, Pte(frame=5))
        assert mmu.access_2d(Clock(), ASID, gpt, ept, 0x10,
                             AccessType.READ, True) == -1
        assert type(mmu.fault) is EptViolation
        # The first missing translation is the GPT root node's frame.
        assert mmu.fault.gpa >> 12 == gpt.root.frame

    def test_full_translation_after_warm(self, env):
        host, guest, tlb, mmu = env
        gpt, ept = self._guest_tables(env)
        gpt.map(0x10, Pte(frame=5))
        self._warm_ept(ept, gpt, host, leaf_gfn=5)
        clock = Clock()
        frame = mmu.access_2d(clock, ASID, gpt, ept, 0x10, AccessType.READ, True)
        assert frame == ept.lookup(5).frame
        # Cost: guest 2-D walk + (nodes+leaf) EPT resolutions.
        expected = (
            gpt.levels * DEFAULT_COSTS.walk_step_2d
            + 5 * ept.levels * DEFAULT_COSTS.walk_step_1d
        )
        assert clock.now == expected
        # Cached afterwards.
        mmu.access_2d(clock, ASID, gpt, ept, 0x10, AccessType.READ, True)
        assert clock.now == expected + DEFAULT_COSTS.tlb_hit

    def test_write_needs_ept_write_permission(self, env):
        host, guest, tlb, mmu = env
        gpt, ept = self._guest_tables(env)
        gpt.map(0x10, Pte(frame=5))
        self._warm_ept(ept, gpt, host, leaf_gfn=5)
        ept.protect(5, writable=False)
        assert mmu.access_2d(Clock(), ASID, gpt, ept, 0x10,
                             AccessType.WRITE, True) == -1
        assert type(mmu.fault) is EptViolation


class TestFlushHelpers:
    def test_flush_page(self, env):
        host, guest, tlb, mmu = env
        tlb.insert(ASID, 0x10, 7)
        clock = Clock()
        mmu.flush_page(clock, ASID, 0x10)
        assert tlb.lookup(ASID, 0x10) is None
        assert clock.now == DEFAULT_COSTS.tlb_flush_op
        assert mmu.events.tlb_flushes["page"] == 1

    def test_flush_pcid_counts(self, env):
        host, guest, tlb, mmu = env
        tlb.insert(ASID, 1, 1)
        tlb.insert(ASID, 2, 2)
        assert mmu.flush_pcid(Clock(), ASID) == 2

    def test_flush_vpid_more_expensive(self, env):
        host, guest, tlb, mmu = env
        c1, c2 = Clock(), Clock()
        mmu.flush_pcid(c1, ASID)
        mmu.flush_vpid(c2, ASID.vpid)
        assert c2.now > c1.now

    def test_flush_all(self, env):
        host, guest, tlb, mmu = env
        tlb.insert(ASID, 1, 1)
        assert mmu.flush_all(Clock()) == 1
        assert len(tlb) == 0
