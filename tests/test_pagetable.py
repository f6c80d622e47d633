"""Unit tests for the 4-level radix page tables."""

import pytest

from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable, Pte
from repro.hw.tlb import Tlb
from repro.hw.types import (
    MIB,
    AccessType,
    Asid,
    EptViolation,
    HardwareError,
    PageFault,
    PT_LEVELS,
)
from repro.sim.clock import Clock


@pytest.fixture
def phys():
    return PhysicalMemory("t", size_bytes=16 * MIB)


@pytest.fixture
def pt(phys):
    return PageTable(phys, name="test")


class TestMap:
    def test_first_map_allocates_all_levels(self, pt):
        result = pt.map(0x1000, Pte(frame=5))
        # Root exists; the level 3, 2 and 1 nodes are allocated.
        assert result.allocated_levels == 3
        assert result.written_frames == PT_LEVELS

    def test_neighbour_map_writes_one_entry(self, pt):
        pt.map(0x1000, Pte(frame=5))
        result = pt.map(0x1001, Pte(frame=6))
        assert result.allocated_levels == 0
        assert result.written_frames == 1

    def test_double_map_rejected(self, pt):
        pt.map(0x1000, Pte(frame=5))
        with pytest.raises(HardwareError):
            pt.map(0x1000, Pte(frame=6))

    def test_mapped_pages_counter(self, pt):
        for i in range(10):
            pt.map(i, Pte(frame=i))
        assert pt.mapped_pages == 10

    def test_distant_vpns_use_distinct_subtrees(self, pt):
        r1 = pt.map(0, Pte(frame=1))
        r2 = pt.map(1 << 27, Pte(frame=2))  # different level-4 index
        assert r2.allocated_levels == 3
        assert pt.lookup(0).frame == 1
        assert pt.lookup(1 << 27).frame == 2


class TestUnmap:
    def test_unmap_returns_pte(self, pt):
        pt.map(0x42, Pte(frame=9))
        pte = pt.unmap(0x42)
        assert pte.frame == 9
        assert pt.lookup(0x42) is None

    def test_unmap_missing_raises(self, pt):
        with pytest.raises(HardwareError):
            pt.unmap(0x42)

    def test_unmap_prunes_empty_nodes(self, pt, phys):
        before = phys.free_frames
        pt.map(0x42, Pte(frame=9))
        pt.unmap(0x42)
        # All intermediate nodes freed again.
        assert phys.free_frames == before

    def test_unmap_keeps_shared_nodes(self, pt):
        pt.map(0x1000, Pte(frame=1))
        pt.map(0x1001, Pte(frame=2))
        pt.unmap(0x1000)
        assert pt.lookup(0x1001).frame == 2


class TestEnsure:
    """``ensure`` is ``lookup`` then ``protect``/``map`` in one descent."""

    def test_installs_like_map(self, pt):
        result = pt.ensure(0x1000, Pte(frame=5))
        assert result.allocated_levels == 3
        assert result.written_frames == PT_LEVELS
        assert pt.lookup(0x1000).frame == 5 and pt.mapped_pages == 1

    def test_updates_existing_entry_in_place(self, pt):
        pt.map(0x10, Pte(frame=1, writable=False))
        writes = pt.entry_writes
        result = pt.ensure(0x10, Pte(frame=9), frame=2, writable=True)
        pte = pt.lookup(0x10)
        assert result.pte is pte and (pte.frame, pte.writable) == (2, True)
        assert result.allocated_levels == 0
        assert result.written_frames == 1
        assert pt.entry_writes == writes + 1 and pt.mapped_pages == 1

    def test_without_flags_leaves_existing_entry_alone(self, pt):
        pt.map(0x10, Pte(frame=1))
        writes = pt.entry_writes
        result = pt.ensure(0x10, Pte(frame=9))
        assert result.written_frames == 0 and pt.entry_writes == writes
        assert pt.lookup(0x10).frame == 1

    def test_huge_entries(self, pt):
        pt.ensure(0x200, Pte(frame=0x400, huge=True))
        assert pt.lookup(0x3FF).frame == 0x400 and pt.mapped_pages == 512
        # A 4K ensure inside the run updates the covering huge entry.
        result = pt.ensure(0x205, Pte(frame=7), writable=False)
        assert result.pte is pt.lookup(0x200) and not result.pte.writable
        with pytest.raises(ValueError):
            pt.ensure(0x201, Pte(frame=0x400, huge=True))
        pt.map(0x601, Pte(frame=3))  # a leaf table under the next run
        with pytest.raises(HardwareError):
            pt.ensure(0x600, Pte(frame=0x800, huge=True))

    def test_rejects_unknown_flags(self, pt):
        pt.map(0x10, Pte(frame=1))
        with pytest.raises(ValueError):
            pt.ensure(0x10, Pte(frame=1), huge=True)

    def test_one_level_table_rejects_huge_entries(self, phys):
        flat = PageTable(phys, name="flat", levels=1)
        with pytest.raises(ValueError):
            flat.ensure(0, Pte(frame=0x400, huge=True))
        with pytest.raises(ValueError):
            flat.map_huge(0, Pte(frame=0x400))
        assert flat.mapped_pages == 0 and not flat.root.entries


def _twin_tables():
    """Two tables with the same mappings over two identical memories:
    vpns 0..599 and 1024..1029 small, one 2 MiB run at 2048."""
    tables = []
    for _ in range(2):
        table = PageTable(PhysicalMemory("t", 16 * MIB), name="twin")
        for vpn in [*range(600), *range(1024, 1030)]:
            table.map(vpn, Pte(frame=0x1000 + vpn))
        table.map_huge(2048, Pte(frame=0x2000))
        tables.append(table)
    return tables


class TestUnmapEach:
    def test_matches_page_by_page_unmap(self):
        batched, stepped = _twin_tables()
        vpns = range(300, 2600)
        seen = []
        batched.unmap_each(vpns, lambda vpn, pte: seen.append(
            (vpn, pte.frame, batched.phys.free_frames, batched.epoch)))
        expected = []
        for vpn in vpns:
            pte = stepped.lookup(vpn)
            if pte is None or (pte.huge and vpn % 512):
                continue
            if pte.huge:
                stepped.unmap_huge(vpn)
            else:
                stepped.unmap(vpn)
            expected.append((vpn, pte.frame, stepped.phys.free_frames,
                             stepped.epoch))
        assert seen == expected
        assert len(seen) == 300 + 6 + 1
        for attr in ("mapped_pages", "entry_writes", "epoch",
                     "node_allocations"):
            assert getattr(batched, attr) == getattr(stepped, attr)
        assert batched.phys.free_frames == stepped.phys.free_frames

    def test_huge_entry_unmaps_only_at_its_base(self):
        table, _ = _twin_tables()
        table.unmap_each(range(2049, 2100), lambda vpn, pte: None)
        assert table.lookup(2049) is not None
        removed = []
        table.unmap_each([2048], lambda vpn, pte: removed.append(vpn))
        assert removed == [2048] and table.lookup(2049) is None


class TestProtect:
    def test_protect_flags(self, pt):
        pt.map(0x7, Pte(frame=1, writable=True))
        pte = pt.protect(0x7, writable=False)
        assert not pte.writable

    def test_protect_unknown_flag(self, pt):
        pt.map(0x7, Pte(frame=1))
        with pytest.raises(ValueError):
            pt.protect(0x7, bogus=True)

    def test_protect_unmapped(self, pt):
        with pytest.raises(HardwareError):
            pt.protect(0x7, writable=False)

    def test_protect_counts_as_entry_write(self, pt):
        pt.map(0x7, Pte(frame=1))
        before = pt.entry_writes
        pt.protect(0x7, writable=False)
        assert pt.entry_writes == before + 1

    @pytest.mark.parametrize("flags", [
        {"huge": True, "frame": 99},
        {"frame": 99},
        {"accessed": True},
        {"dirty": True},
        {"writable": False, "huge": True},
    ])
    def test_protect_rejects_non_permission_fields(self, pt, flags):
        pt.map(0x7, Pte(frame=1))
        before = pt.entry_writes
        with pytest.raises(ValueError):
            pt.protect(0x7, **flags)
        # Rejected before anything is written, valid flags included.
        assert pt.lookup(0x7) == Pte(frame=1)
        assert pt.entry_writes == before

    def test_protect_accepts_every_permission_flag(self, pt):
        pt.map(0x7, Pte(frame=1))
        pte = pt.protect(0x7, writable=False, user=False, executable=False,
                         global_=True)
        assert pte == Pte(frame=1, writable=False, user=False,
                          executable=False, global_=True)

    def test_protect_range_writes_each_mapping_once(self, pt):
        pt.map_huge(512, Pte(frame=2048))
        for vpn in (3, 5, 1030):
            pt.map(vpn, Pte(frame=vpn))
        before = pt.entry_writes
        # A 2 MiB entry takes one write; holes take none.
        assert pt.protect_range(0, 1100, writable=False) == 4
        assert pt.entry_writes - before == 4
        for vpn in (3, 5, 600, 1030):
            assert not pt.lookup(vpn).writable
        assert pt.protect_range(0, 1100) == 4
        with pytest.raises(ValueError):
            pt.protect_range(0, 1100, frame=9)


class TestWalk:
    def test_successful_walk(self, pt):
        pt.map(0x1234, Pte(frame=77))
        result = pt.walk(0x1234, AccessType.READ, user=True)
        assert result.frame == 77
        assert len(result.nodes) == PT_LEVELS

    def test_walk_sets_accessed_dirty(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.walk(0x1, AccessType.WRITE, user=True)
        pte = pt.lookup(0x1)
        assert pte.accessed and pte.dirty

    def test_read_does_not_dirty(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.walk(0x1, AccessType.READ, user=True)
        assert not pt.lookup(0x1).dirty

    def test_miss_reports_level(self, pt):
        fault = pt.walk(0x1234, AccessType.READ, user=True)
        assert type(fault) is PageFault
        assert fault.level == PT_LEVELS  # empty root

    def test_leaf_miss_level_one(self, pt):
        pt.map(0x1000, Pte(frame=5))
        fault = pt.walk(0x1001, AccessType.READ, user=True)
        assert type(fault) is PageFault
        assert fault.level == 1

    def test_write_to_readonly_faults(self, pt):
        pt.map(0x9, Pte(frame=1, writable=False))
        fault = pt.walk(0x9, AccessType.WRITE, user=True)
        assert type(fault) is PageFault
        assert fault.is_protection

    def test_user_access_to_supervisor_faults(self, pt):
        pt.map(0x9, Pte(frame=1, user=False))
        assert type(pt.walk(0x9, AccessType.READ, user=True)) is PageFault
        # Supervisor access succeeds.
        assert pt.walk(0x9, AccessType.READ, user=False).frame == 1

    def test_nx_fetch_faults(self, pt):
        pt.map(0x9, Pte(frame=1, executable=False))
        assert type(pt.walk(0x9, AccessType.EXECUTE, user=True)) is PageFault


ASID = Asid(vpid=1, pcid=1)


def guest_leg_2d(pt, vpn, access, user):
    """``pt`` as the guest dimension of a 2-D miss, nested over an EPT
    that maps every frame the walk needs to itself (a 2 MiB guest run
    through one huge entry).  Returns the frame (-1 on a fault), the
    MMU, and whether the TLB was filled with a huge entry."""
    ept = PageTable(PhysicalMemory("ept", 16 * MIB), name="ept")
    pte = pt.lookup(vpn)
    if pte is not None and pte.huge:
        ept.map_huge(pte.frame, Pte(frame=pte.frame, user=False))
    frames = pt.node_frames() + ([pte.frame] if pte is not None else [])
    for frame in frames:
        if ept.lookup(frame) is None:
            ept.map(frame, Pte(frame=frame, user=False))
    mmu = Mmu(Tlb(), EventLog(), DEFAULT_COSTS)
    frame = mmu.access_2d(Clock(), ASID, pt, ept, vpn, access, user)
    return frame, mmu, mmu.tlb.lookup(ASID, vpn ^ 1) is not None


def _ept_leg(pt, gfn, access):
    """``pt`` as the extended dimension: a one-level guest table maps
    guest page 0 to ``gfn``, and its root frame is mapped in ``pt``, so
    the leaf leg is the only one that can fault.  Returns the host frame
    (-1 on a violation) and the MMU."""
    gpt = PageTable(PhysicalMemory("guest", 16 * MIB), name="gpt", levels=1)
    gpt.map(0, Pte(frame=gfn))
    if pt.lookup(gpt.root.frame) is None:
        pt.map(gpt.root.frame, Pte(frame=0x3000, user=False))
    mmu = Mmu(Tlb(), EventLog(), DEFAULT_COSTS)
    return mmu.access_2d(Clock(), ASID, gpt, pt, 0, access, False), mmu


class TestWalkLeaf:
    """The inline walks of a 2-D TLB miss, which replaced
    ``PageTable.walk_leaf``: the guest-dimension walk and the EPT leg
    give the frames, A/D updates and fault descriptors of :meth:`walk`."""

    def test_small_and_huge_leaves(self, pt):
        pt.map(0x1234, Pte(frame=77))
        pt.map_huge(0x400, Pte(frame=0x800))
        assert guest_leg_2d(pt, 0x1234, AccessType.READ, True)[::2] == (77, False)
        assert guest_leg_2d(pt, 0x405, AccessType.READ, True)[::2] == (0x805, True)
        assert _ept_leg(pt, 0x1234, AccessType.READ)[0] == 77
        assert _ept_leg(pt, 0x405, AccessType.READ)[0] == 0x805

    def test_sets_accessed_dirty_like_walk(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(0x2, Pte(frame=2))
        pt.map(0x3, Pte(frame=3))
        pt.map(0x4, Pte(frame=4))
        guest_leg_2d(pt, 0x1, AccessType.WRITE, True)
        guest_leg_2d(pt, 0x2, AccessType.READ, True)
        _ept_leg(pt, 0x3, AccessType.WRITE)
        _ept_leg(pt, 0x4, AccessType.READ)
        for vpn in (0x1, 0x3):
            assert pt.lookup(vpn).accessed and pt.lookup(vpn).dirty
        for vpn in (0x2, 0x4):
            assert pt.lookup(vpn).accessed and not pt.lookup(vpn).dirty

    @pytest.mark.parametrize("pte,vpn,access,user", [
        (None, 0x1234, AccessType.READ, True),
        (Pte(frame=5), 0x1001, AccessType.READ, True),
        (Pte(frame=1, writable=False), 0x1000, AccessType.WRITE, True),
        (Pte(frame=1, user=False), 0x1000, AccessType.READ, True),
        (Pte(frame=1, executable=False), 0x1000, AccessType.EXECUTE, False),
    ])
    def test_faults_like_walk(self, pt, pte, vpn, access, user):
        if pte is not None:
            pt.map(0x1000, pte)
        full = pt.walk(vpn, access, user)
        assert type(full) is PageFault
        frame, mmu, _ = guest_leg_2d(pt, vpn, access, user)
        assert frame == -1 and mmu.fault == full
        # The EPT leg walks as the hypervisor (user=False); where that
        # still faults, the violation carries the walk's access and level.
        frame, mmu = _ept_leg(pt, vpn, access)
        full = pt.walk(vpn, access, False)
        if type(full) is PageFault:
            assert frame == -1
            assert mmu.fault == EptViolation(vpn << 12, access, full.level)
        else:
            assert frame == full.frame


class TestIteration:
    def test_iter_sorted(self, pt):
        vpns = [500, 3, 1 << 20, 77]
        for v in vpns:
            pt.map(v, Pte(frame=v))
        seen = [v for v, _ in pt.iter_mappings()]
        assert seen == sorted(vpns)

    def test_iter_reconstructs_vpn(self, pt):
        pt.map(0xABCDE, Pte(frame=1))
        assert [v for v, _ in pt.iter_mappings()] == [0xABCDE]


class TestLifecycle:
    def test_destroy_clears(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.destroy()
        assert pt.mapped_pages == 0
        assert pt.lookup(0x1) is None
        # Table remains usable.
        pt.map(0x1, Pte(frame=2))
        assert pt.lookup(0x1).frame == 2

    def test_destroy_counts_the_fresh_root(self, pt):
        pt.map(0x1, Pte(frame=1))
        allocations = pt.node_allocations
        pt.destroy()
        # The new root is an allocation like any other node: the
        # write-protect stamp of shadow paging relies on the counter.
        assert pt.node_allocations == allocations + 1

    def test_release_frees_everything(self, pt, phys):
        before = phys.free_frames + 1  # +1 for the root allocated at init
        pt.map(0x1, Pte(frame=1))
        pt.release()
        assert phys.free_frames == before

    def test_entry_writes_counted(self, pt):
        before = pt.entry_writes
        pt.map(0x1, Pte(frame=1))
        assert pt.entry_writes - before == PT_LEVELS
        pt.protect(0x1, writable=False)
        assert pt.entry_writes - before == PT_LEVELS + 1

    def test_node_frames_cover_tree(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(1 << 30, Pte(frame=2))
        # root + 2 x 3 inner/leaf nodes
        assert len(pt.node_frames()) == 7
