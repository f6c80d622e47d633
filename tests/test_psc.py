"""Paging-structure-cache semantics: accounting, eviction, invalidation,
partial-walk charging, and the seed-exact disabled mode."""

import pytest

from repro import make_machine
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable, Pte
from repro.hw.psc import PagingStructureCache
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, EptViolation, PageFault, asid_key
from repro.hypervisors.base import MachineConfig
from repro.sim.clock import Clock
from repro.sim.stats import reset_phase_stats, translation_stats


ASID = Asid(vpid=1, pcid=1)
AKEY = asid_key(ASID.vpid, ASID.pcid)


@pytest.fixture
def phys():
    return PhysicalMemory("host", 32 * MIB)


def make_mmu(psc_capacity=64, tlb_capacity=1536):
    tlb = Tlb(tlb_capacity)
    psc = PagingStructureCache(psc_capacity)
    return Mmu(tlb, EventLog(), DEFAULT_COSTS, psc=psc)


class TestPscUnit:
    def test_hit_miss_accounting(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        pt.map(0x11, Pte(frame=2))
        psc = PagingStructureCache()
        assert psc.lookup(pt, AKEY, 0x10) is None
        assert psc.stats.misses == 1
        result = pt.walk(0x10, AccessType.READ, True)
        psc.fill(pt, AKEY, 0x10, result.nodes)
        # Root is never cached; the three lower nodes are.
        assert len(psc) == 3
        assert psc.stats.insertions == 3
        # Neighbouring page in the same leaf table resumes at level 1.
        node = psc.lookup(pt, AKEY, 0x11)
        assert node is not None and node.level == 1
        assert psc.stats.hits == 1
        assert psc.stats.hit_rate == 0.5

    def test_deepest_hit_wins(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        result = pt.walk(0x10, AccessType.READ, True)
        psc.fill(pt, AKEY, 0x10, result.nodes)
        # A page in a *different* leaf table but the same PD region hits
        # at level 2, not level 1 (different level-1 tag).
        other = 0x10 + 512
        node = psc.lookup(pt, AKEY, other)
        assert node is not None and node.level == 2

    def test_capacity_eviction_fifo(self, phys):
        pt = PageTable(phys, "pt")
        psc = PagingStructureCache(capacity=3)
        # Three distant regions -> 3 entries per fill (levels 1..3).
        for i, vpn in enumerate([0, 1 << 27, 2 << 27]):
            pt.map(vpn, Pte(frame=10 + i))
            psc.fill(pt, AKEY, vpn, pt.walk(vpn, AccessType.READ, True).nodes)
        assert len(psc) == 3
        assert psc.stats.evictions == 6  # 9 inserted, 3 kept
        # The oldest region's entries were evicted.
        assert psc.lookup(pt, AKEY, 0) is None

    def test_asid_scoping(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        nodes = pt.walk(0x10, AccessType.READ, True).nodes
        psc.fill(pt, AKEY, 0x10, nodes)
        other = asid_key(1, 2)
        assert psc.lookup(pt, other, 0x10) is None
        psc.fill(pt, other, 0x10, nodes)
        assert psc.invalidate_asid(other) == 3
        assert psc.lookup(pt, AKEY, 0x10) is not None

    def test_vpid_invalidation_spans_pcids(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        nodes = pt.walk(0x10, AccessType.READ, True).nodes
        psc.fill(pt, asid_key(1, 1), 0x10, nodes)
        psc.fill(pt, asid_key(1, 2), 0x10, nodes)
        psc.fill(pt, asid_key(2, 1), 0x10, nodes)
        assert psc.invalidate_vpid(1) == 6
        assert psc.lookup(pt, asid_key(2, 1), 0x10) is not None

    def test_page_invalidation_covers_levels(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        psc.fill(pt, AKEY, 0x10, pt.walk(0x10, AccessType.READ, True).nodes)
        assert psc.invalidate_page(AKEY, 0x10) == 3
        assert psc.lookup(pt, AKEY, 0x10) is None

    def test_stale_after_unmap_prune_never_returned(self, phys):
        """A shadow unmap that frees table nodes must kill cached
        intermediate entries even if no explicit flush reached the PSC —
        the epoch guard makes stale resumption structurally impossible."""
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        psc.fill(pt, AKEY, 0x10, pt.walk(0x10, AccessType.READ, True).nodes)
        pt.unmap(0x10)  # prunes the now-empty nodes, bumps epoch
        assert psc.lookup(pt, AKEY, 0x10) is None
        # Remapping the same vpn builds fresh nodes; the old (stale)
        # entries must not resurface for them either.
        pt.map(0x10, Pte(frame=2))
        assert psc.lookup(pt, AKEY, 0x10) is None
        assert pt.walk(0x10, AccessType.READ, True).frame == 2

    def test_destroy_invalidates(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        psc.fill(pt, AKEY, 0x10, pt.walk(0x10, AccessType.READ, True).nodes)
        pt.destroy()
        assert psc.lookup(pt, AKEY, 0x10) is None

    def test_table_identity_scoping(self, phys):
        """Two tables with identical shapes never share cached nodes."""
        pt_a = PageTable(phys, "a")
        pt_b = PageTable(phys, "b")
        pt_a.map(0x10, Pte(frame=1))
        pt_b.map(0x10, Pte(frame=2))
        psc = PagingStructureCache()
        psc.fill(pt_a, AKEY, 0x10, pt_a.walk(0x10, AccessType.READ, True).nodes)
        assert psc.lookup(pt_b, AKEY, 0x10) is None

    def test_stats_reset(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        psc = PagingStructureCache()
        psc.fill(pt, AKEY, 0x10, pt.walk(0x10, AccessType.READ, True).nodes)
        psc.lookup(pt, AKEY, 0x10)
        psc.clear()
        psc.stats.reset()
        for field in ("hits", "misses", "insertions", "evictions",
                      "flushes", "entries_flushed"):
            assert getattr(psc.stats, field) == 0


class TestMmuPartialWalks:
    def test_warm_sequential_charges_fewer_steps(self, phys):
        """Acceptance: with PSCs, a warm sequential sweep charges
        strictly fewer walk steps than ``levels x misses``."""
        pt = PageTable(phys, "pt")
        npages = 256
        for vpn in range(npages):
            pt.map(vpn, Pte(frame=vpn))
        # A tiny TLB forces a miss on every access; the PSC is what
        # keeps the walks short.
        mmu = make_mmu(tlb_capacity=4)
        clock = Clock()
        for vpn in range(npages):
            assert mmu.access_1d(clock, ASID, pt, vpn, AccessType.READ, True) == vpn
        misses = mmu.tlb.stats.misses
        assert misses == npages
        full_cost = pt.levels * DEFAULT_COSTS.walk_step_1d * misses
        assert clock.now < full_cost
        # All misses after the first resumed from the PSC.
        assert mmu.psc.stats.hits == npages - 1
        # First miss: full walk.  Later misses within the same leaf
        # table: one step plus the PSC probe.
        expected = pt.levels * DEFAULT_COSTS.walk_step_1d + (npages - 1) * (
            DEFAULT_COSTS.walk_step_1d + DEFAULT_COSTS.walk_step_cached
        )
        assert clock.now == expected

    def test_disabled_mode_charges_seed_costs(self, phys):
        """Acceptance: without a PSC the charges are the seed model's
        full-depth walks, bit-identical."""
        pt = PageTable(phys, "pt")
        npages = 64
        for vpn in range(npages):
            pt.map(vpn, Pte(frame=vpn))
        tlb = Tlb(4)
        mmu = Mmu(tlb, EventLog(), DEFAULT_COSTS)  # psc defaults to None
        clock = Clock()
        for vpn in range(npages):
            mmu.access_1d(clock, ASID, pt, vpn, AccessType.READ, True)
        assert clock.now == pt.levels * DEFAULT_COSTS.walk_step_1d * npages

    def test_fault_charges_partial_depth(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        mmu = make_mmu(tlb_capacity=4)
        clock = Clock()
        mmu.access_1d(clock, ASID, pt, 0x10, AccessType.READ, True)
        charged = clock.now
        # 0x11 shares the leaf table: the walk resumes at level 1 and
        # faults there after a single read (+ probe).
        assert mmu.access_1d(clock, ASID, pt, 0x11, AccessType.READ, True) == -1
        assert type(mmu.fault) is PageFault
        assert clock.now - charged == (
            DEFAULT_COSTS.walk_step_1d + DEFAULT_COSTS.walk_step_cached
        )

    def test_flush_pcid_forces_full_walk(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        pt.map(0x11, Pte(frame=2))
        mmu = make_mmu()
        clock = Clock()
        mmu.access_1d(clock, ASID, pt, 0x10, AccessType.READ, True)
        mmu.flush_pcid(clock, ASID)
        before = clock.now
        mmu.access_1d(clock, ASID, pt, 0x11, AccessType.READ, True)
        # Full-depth walk again: the PSC entries for this ASID are gone.
        assert clock.now - before == pt.levels * DEFAULT_COSTS.walk_step_1d

    def test_flush_page_invalidates_psc_scope(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        mmu = make_mmu()
        mmu.access_1d(Clock(), ASID, pt, 0x10, AccessType.READ, True)
        assert len(mmu.psc) == 3
        mmu.flush_page(Clock(), ASID, 0x10)
        assert len(mmu.psc) == 0

    def test_drop_vpid_clears_psc_silently(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        mmu = make_mmu()
        mmu.access_1d(Clock(), ASID, pt, 0x10, AccessType.READ, True)
        clock = Clock()
        mmu.drop_vpid(ASID.vpid)
        assert clock.now == 0  # the victim is not charged
        assert len(mmu.psc) == 0
        assert mmu.tlb.lookup(ASID, 0x10) is None

    def test_psc_probes_observable_in_events(self, phys):
        pt = PageTable(phys, "pt")
        pt.map(0x10, Pte(frame=1))
        pt.map(0x11, Pte(frame=2))
        mmu = make_mmu(tlb_capacity=4)
        mmu.access_1d(Clock(), ASID, pt, 0x10, AccessType.READ, True)
        mmu.access_1d(Clock(), ASID, pt, 0x11, AccessType.READ, True)
        assert mmu.events.psc_probes.get("miss") == 1
        assert mmu.events.psc_probes.get("hit") == 1
        assert "psc_probes" in mmu.events.snapshot()


class TestMmu2dCollapse:
    def _warm_pair(self, phys):
        guest = PhysicalMemory("guest", 32 * MIB)
        gpt = PageTable(guest, "gpt")
        ept = PageTable(phys, "ept")
        for vpn in range(4):
            gpt.map(vpn, Pte(frame=5 + vpn))
        for node in gpt.node_frames():
            ept.map(node, Pte(frame=phys.alloc_frame(), user=False))
        for vpn in range(4):
            ept.map(5 + vpn, Pte(frame=phys.alloc_frame(), user=False))
        return gpt, ept

    def test_warm_2d_collapses(self, phys):
        gpt, ept = self._warm_pair(phys)
        mmu = make_mmu(tlb_capacity=1)  # every access TLB-misses
        clock = Clock()
        mmu.access_2d(clock, ASID, gpt, ept, 0, AccessType.READ, True)
        cold = clock.now
        # Cold: full guest walk + 5 full EPT resolutions.
        assert cold == (
            gpt.levels * DEFAULT_COSTS.walk_step_2d
            + 5 * ept.levels * DEFAULT_COSTS.walk_step_1d
        )
        mmu.access_2d(clock, ASID, gpt, ept, 1, AccessType.READ, True)
        warm = clock.now - cold
        # Warm: the guest walk resumes at the leaf table (1 step + probe)
        # and both nested resolutions (leaf node + target gfn... the node
        # hits the GPA cache, the new gfn walks) collapse partially.
        assert warm == (
            DEFAULT_COSTS.walk_step_2d + DEFAULT_COSTS.walk_step_cached  # guest
            + DEFAULT_COSTS.walk_step_cached                             # node gfn
            + ept.levels * DEFAULT_COSTS.walk_step_1d                    # new gfn
        )
        assert warm < cold

    def test_gpa_cache_respects_ept_writes(self, phys):
        """An EPT permission downgrade must not be masked by the GPA
        cache (entry_writes stamp invalidates conservatively)."""
        gpt, ept = self._warm_pair(phys)
        mmu = make_mmu(tlb_capacity=1)
        mmu.access_2d(Clock(), ASID, gpt, ept, 0, AccessType.WRITE, True)
        ept.protect(5, writable=False)
        # The downgrade flushes the stale TLB entry (as any hypervisor
        # must); the GPA cache needs no flush — its entry_writes stamp
        # is already stale, which is exactly what this test pins down.
        mmu.tlb.flush_page(ASID, 0)
        assert mmu.access_2d(Clock(), ASID, gpt, ept, 0,
                             AccessType.WRITE, True) == -1
        assert type(mmu.fault) is EptViolation

    def test_disabled_2d_charges_seed_costs(self, phys):
        gpt, ept = self._warm_pair(phys)
        tlb = Tlb(1)
        mmu = Mmu(tlb, EventLog(), DEFAULT_COSTS)
        clock = Clock()
        for vpn in (0, 1, 2):
            mmu.access_2d(clock, ASID, gpt, ept, vpn, AccessType.READ, True)
        assert clock.now == 3 * (
            gpt.levels * DEFAULT_COSTS.walk_step_2d
            + 5 * ept.levels * DEFAULT_COSTS.walk_step_1d
        )


class TestMachineWiring:
    def test_default_config_has_no_psc(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        assert ctx.mmu.psc is None

    @pytest.mark.parametrize("scenario", ["pvm (BM)", "kvm-ept (BM)",
                                          "kvm-spt (BM)", "pvm (NST)"])
    def test_psc_enabled_machines_still_converge(self, scenario):
        m = make_machine(scenario, config=MachineConfig(psc=True))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 32 * 4096)
        for vpn in range(vma.start_vpn, vma.start_vpn + 32):
            m.touch(ctx, proc, vpn, write=True)
        # Second sweep: all warm, and at least some walks were partial
        # on machines that translate through the MMU with misses.
        for vpn in range(vma.start_vpn, vma.start_vpn + 32):
            m.touch(ctx, proc, vpn, write=True)
        assert ctx.mmu.psc is not None

    @pytest.mark.parametrize("scenario", ["pvm (BM)", "kvm-ept (BM)",
                                          "kvm-spt (BM)", "pvm (NST)",
                                          "kvm-ept (NST)"])
    def test_psc_machine_reaches_same_frames(self, scenario):
        """PSCs are a cost model, not a semantics change: both modes must
        translate every page to the same host frame AND take the same
        fault path.  The 2-D case is the regression trap: filling the
        PSC before the nested EPT legs resolve lets a faulting retry
        resume past upper guest-table nodes, hiding their EPT violations
        from the hypervisor (fewer mappings, different frames)."""
        frames = {}
        counters = {}
        for psc in (False, True):
            m = make_machine(scenario, config=MachineConfig(psc=psc))
            ctx = m.new_context()
            proc = m.spawn_process()
            vma = m.mmap(ctx, proc, 64 * 4096)
            frames[psc] = [
                m.touch(ctx, proc, vpn, write=True)
                for _ in range(3)
                for vpn in range(vma.start_vpn, vma.start_vpn + 64)
            ]
            counters[psc] = {
                c.name: c.total for c in m.events._counters()
                if c.name != "psc_probes"
            }
        assert frames[False] == frames[True]
        assert counters[False] == counters[True]

    def test_reset_phase_stats_covers_psc(self):
        m = make_machine("pvm (BM)", config=MachineConfig(psc=True))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 8 * 4096)
        for vpn in range(vma.start_vpn, vma.start_vpn + 8):
            m.touch(ctx, proc, vpn, write=True)
        stats = translation_stats(m)
        assert stats["tlb_lookups"] > 0
        reset_phase_stats(m)
        stats = translation_stats(m)
        assert stats["tlb_lookups"] == 0
        assert stats["psc_lookups"] == 0
        assert ctx.mmu.psc.stats.hits == 0
        assert m.events.psc_probes.total == 0
