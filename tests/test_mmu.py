"""Unit tests for the software MMU (1-D and 2-D walks)."""

import pytest

from repro import make_machine
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable, Pte
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, EptViolation, PageFault
from repro.sim.clock import Clock
from repro.sim.stats import reset_phase_stats, translation_stats


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

    def test_every_miss_charges_full_depth(self, env):
        """Misses into an already-walked leaf table still charge every
        level: the cost model has no partial walks."""
        host, guest, tlb, mmu = env
        pt = PageTable(host, "pt")
        npages = 64
        for vpn in range(npages):
            pt.map(vpn, Pte(frame=vpn))
        mmu = Mmu(Tlb(4), EventLog(), DEFAULT_COSTS)
        clock = Clock()
        for vpn in range(npages):
            assert mmu.access_1d(clock, ASID, pt, vpn, AccessType.READ,
                                 True) == vpn
        assert mmu.tlb.stats.misses == npages
        assert clock.now == pt.levels * DEFAULT_COSTS.walk_step_1d * npages


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

    def test_every_miss_charges_full_depth(self, env):
        """Repeat misses through the same guest leaf table charge the
        full guest walk and every EPT leg each time."""
        host, guest, tlb, mmu = env
        gpt, ept = self._guest_tables(env)
        for vpn in range(4):
            gpt.map(vpn, Pte(frame=5 + vpn))
            self._warm_ept(ept, gpt, host, leaf_gfn=5 + vpn)
        mmu = Mmu(Tlb(1), EventLog(), DEFAULT_COSTS)
        clock = Clock()
        for vpn in (0, 1, 2):
            assert mmu.access_2d(clock, ASID, gpt, ept, vpn, AccessType.READ,
                                 True) == ept.lookup(5 + vpn).frame
        assert clock.now == 3 * (
            gpt.levels * DEFAULT_COSTS.walk_step_2d
            + 5 * ept.levels * DEFAULT_COSTS.walk_step_1d
        )

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

    def test_drop_vpid_is_silent_on_the_victim(self, env):
        host, guest, tlb, mmu = env
        pt = PageTable(host, "pt")
        pt.map(0x10, Pte(frame=1))
        mmu.access_1d(Clock(), ASID, pt, 0x10, AccessType.READ, True)
        assert mmu.drop_vpid(ASID.vpid) == 1
        assert tlb.lookup(ASID, 0x10) is None
        # The initiator pays for a shootdown; the victim records nothing.
        assert mmu.events.tlb_flushes.total == 0


#: Three tags; the TLB below holds the same layout under each.
RANGE_ASIDS = (Asid(vpid=1, pcid=1), Asid(vpid=1, pcid=2), Asid(vpid=2, pcid=1))
#: A run mixing 4K hits, misses, a page inside a 2 MiB entry (a
#: demotion), a second page of the run it dropped, and a page that has
#: both a 4K and a 2 MiB entry.
RANGE_VPNS = (3, 4, 5, 39, 40, 1029, 1030, 2051, 3000)


def _range_tlb() -> Tlb:
    tlb = Tlb(capacity=4096)
    for asid in RANGE_ASIDS:
        for vpn in range(40):
            tlb.insert(asid, vpn, 1000 + vpn)
        tlb.insert(asid, 1024 + 5, 5005, huge=True)  # run [1024, 1536)
        tlb.insert(asid, 2048, 7000, huge=True)  # run [2048, 2560)
        # The model lets a 4K entry sit over a page of a cached 2 MiB run.
        tlb.insert(asid, 2051, 9000)
    return tlb


class TestFlushPages:
    """The range INVLPG, ``Mmu.flush_pages``, against one
    ``Tlb.flush_page`` per page."""

    def test_matches_per_page_flushes(self):
        asid = RANGE_ASIDS[1]
        per_page = _range_tlb()
        dropped = sum(per_page.flush_page(asid, vpn) for vpn in RANGE_VPNS)

        tlb = _range_tlb()
        mmu = Mmu(tlb, EventLog(), DEFAULT_COSTS)
        clock = Clock(100)
        assert mmu.flush_pages(clock, asid, RANGE_VPNS) == dropped == 6
        assert tlb.entries == per_page.entries
        assert vars(tlb.stats) == vars(per_page.stats)
        assert tlb.stats.flushes_page == len(RANGE_VPNS)
        assert tlb.stats.flushes_huge_demotions == 1
        assert tlb.stats.entries_flushed == 6
        assert clock.now == 100 + len(RANGE_VPNS) * DEFAULT_COSTS.tlb_flush_op
        assert mmu.events.tlb_flushes["page"] == len(RANGE_VPNS)
        assert mmu.events.tlb_flushes.total == len(RANGE_VPNS)

    def test_drops_exactly_the_probed_entries(self):
        """Per page the 4K entry is probed first and a hit ends the
        probe; only a page without one drops its 2 MiB entry."""
        asid = RANGE_ASIDS[1]
        tlb = _range_tlb()
        before = len(tlb)
        Mmu(tlb, EventLog(), DEFAULT_COSTS).flush_pages(Clock(), asid,
                                                         RANGE_VPNS)
        assert len(tlb) == before - 6
        for vpn in (3, 4, 5, 39, 1029, 1030):
            assert tlb.peek_packed(asid.key, vpn) is None
        # 2051's 4K entry went; the 2 MiB entry under it still serves it.
        assert tlb.peek_packed(asid.key, 2051) == 7000 + 3
        assert tlb.peek_packed(asid.key, 2) == 1002
        for other in (RANGE_ASIDS[0], RANGE_ASIDS[2]):
            for vpn in (3, 1029, 2051):
                assert tlb.peek_packed(other.key, vpn) is not None

    def test_flush_page_is_a_run_of_one(self):
        asid = RANGE_ASIDS[0]
        one, run = _range_tlb(), _range_tlb()
        mmu_one = Mmu(one, EventLog(), DEFAULT_COSTS)
        mmu_run = Mmu(run, EventLog(), DEFAULT_COSTS)
        c1, c2 = Clock(), Clock()
        for vpn in RANGE_VPNS:
            mmu_one.flush_page(c1, asid, vpn)
        mmu_run.flush_pages(c2, asid, RANGE_VPNS)
        assert one.entries == run.entries
        assert vars(one.stats) == vars(run.stats)
        assert c1.now == c2.now
        assert (dict(mmu_one.events.tlb_flushes)
                == dict(mmu_run.events.tlb_flushes) == {"page": 9})

    def test_empty_run_counts_and_charges_nothing(self):
        tlb = _range_tlb()
        mmu = Mmu(tlb, EventLog(), DEFAULT_COSTS)
        clock = Clock(7)
        assert mmu.flush_pages(clock, RANGE_ASIDS[0], ()) == 0
        assert clock.now == 7
        assert "page" not in mmu.events.tlb_flushes
        assert vars(tlb.stats) == vars(_range_tlb().stats)

    def test_sanitizer_checks_every_page(self, monkeypatch):
        monkeypatch.setenv("PVM_SANITIZE", "full")
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        san = ctx.mmu.sanitizer
        assert san is m.sanitizers.shadow
        seen = []
        check = san.check_flush_page

        def record(tlb, asid, vpn):
            seen.append(vpn)
            check(tlb, asid, vpn)

        monkeypatch.setattr(san, "check_flush_page", record)
        asid = RANGE_ASIDS[0]
        for vpn in range(40):
            ctx.tlb.insert(asid, vpn, 1000 + vpn)
        checks = m.sanitizers.report.checks.get("shadow", 0)
        ctx.mmu.flush_pages(ctx.clock, asid, RANGE_VPNS)
        assert seen == list(RANGE_VPNS)
        assert m.sanitizers.report.checks["shadow"] == checks + len(RANGE_VPNS)
        assert m.sanitizers.violations == []
        ctx.mmu.flush_pages(ctx.clock, asid, ())
        assert seen == list(RANGE_VPNS)

    @pytest.mark.parametrize("scenario", ["kvm-ept (BM)", "kvm-ept (NST)"])
    def test_invalidate_pages_flushes_a_run_once(self, scenario, monkeypatch):
        runs = []
        flush_pages = Mmu.flush_pages

        def record(self, clock, asid, vpns):
            runs.append(tuple(vpns))
            return flush_pages(self, clock, asid, vpns)

        m = make_machine(scenario)
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * 4096)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        monkeypatch.setattr(Mmu, "flush_pages", record)
        m.munmap(ctx, proc, vma)
        assert runs == [tuple(range(vma.start_vpn, vma.end_vpn))]
        assert m.events.tlb_flushes["page"] == 16


def test_reset_phase_stats_zeroes_tlb_and_events():
    m = make_machine("pvm (BM)")
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 8 * 4096)
    for vpn in range(vma.start_vpn, vma.start_vpn + 8):
        m.touch(ctx, proc, vpn, write=True)
    assert translation_stats(m)["tlb_lookups"] > 0
    assert m.events.page_faults.total > 0
    reset_phase_stats(m)
    assert translation_stats(m) == {"tlb_lookups": 0.0, "tlb_hit_rate": 0.0}
    assert m.events.page_faults.total == 0
