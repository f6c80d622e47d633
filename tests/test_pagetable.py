"""Unit tests for the 4-level radix page tables."""

import pytest

from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PageFaultException, PageTable, Pte
from repro.hw.types import MIB, AccessType, HardwareError, PT_LEVELS


@pytest.fixture
def phys():
    return PhysicalMemory("t", size_bytes=16 * MIB)


@pytest.fixture
def pt(phys):
    return PageTable(phys, name="test")


class TestMap:
    def test_first_map_allocates_all_levels(self, pt):
        result = pt.map(0x1000, Pte(frame=5))
        # Root exists; levels 3, 2, 1 allocated.
        assert result.allocated_levels == (3, 2, 1)
        assert len(result.written_frames) == PT_LEVELS

    def test_neighbour_map_writes_one_entry(self, pt):
        pt.map(0x1000, Pte(frame=5))
        result = pt.map(0x1001, Pte(frame=6))
        assert result.allocated_levels == ()
        assert len(result.written_frames) == 1

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
        assert r2.allocated_levels == (3, 2, 1)
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


class TestWalk:
    def test_successful_walk(self, pt):
        pt.map(0x1234, Pte(frame=77))
        result = pt.walk(0x1234, AccessType.READ, user=True)
        assert result.frame == 77
        assert len(result.node_frames) == PT_LEVELS

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
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x1234, AccessType.READ, user=True)
        assert exc.value.fault.level == PT_LEVELS  # empty root

    def test_leaf_miss_level_one(self, pt):
        pt.map(0x1000, Pte(frame=5))
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x1001, AccessType.READ, user=True)
        assert exc.value.fault.level == 1

    def test_write_to_readonly_faults(self, pt):
        pt.map(0x9, Pte(frame=1, writable=False))
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x9, AccessType.WRITE, user=True)
        assert exc.value.fault.is_protection

    def test_user_access_to_supervisor_faults(self, pt):
        pt.map(0x9, Pte(frame=1, user=False))
        with pytest.raises(PageFaultException):
            pt.walk(0x9, AccessType.READ, user=True)
        # Supervisor access succeeds.
        assert pt.walk(0x9, AccessType.READ, user=False).frame == 1

    def test_nx_fetch_faults(self, pt):
        pt.map(0x9, Pte(frame=1, executable=False))
        with pytest.raises(PageFaultException):
            pt.walk(0x9, AccessType.EXECUTE, user=True)


class TestWalkLeaf:
    def test_small_and_huge_leaves(self, pt):
        pt.map(0x1234, Pte(frame=77))
        pt.map_huge(0x400, Pte(frame=0x800))
        assert pt.walk_leaf(0x1234, AccessType.READ, user=True) == (77, False)
        assert pt.walk_leaf(0x405, AccessType.READ, user=True) == (0x805, True)

    def test_sets_accessed_dirty_like_walk(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(0x2, Pte(frame=2))
        pt.walk_leaf(0x1, AccessType.WRITE, user=True)
        pt.walk_leaf(0x2, AccessType.READ, user=True)
        assert pt.lookup(0x1).accessed and pt.lookup(0x1).dirty
        assert pt.lookup(0x2).accessed and not pt.lookup(0x2).dirty

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
        with pytest.raises(PageFaultException) as full:
            pt.walk(vpn, access, user)
        with pytest.raises(PageFaultException) as leaf:
            pt.walk_leaf(vpn, access, user)
        assert leaf.value.fault == full.value.fault


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

    def test_release_frees_everything(self, pt, phys):
        before = phys.free_frames + 1  # +1 for the root allocated at init
        pt.map(0x1, Pte(frame=1))
        pt.release()
        assert phys.free_frames == before

    def test_write_hook_invoked(self, pt):
        touched = []
        pt.write_hook = touched.append
        pt.map(0x1, Pte(frame=1))
        assert len(touched) == PT_LEVELS
        pt.protect(0x1, writable=False)
        assert len(touched) == PT_LEVELS + 1

    def test_node_frames_cover_tree(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(1 << 30, Pte(frame=2))
        # root + 2 x 3 inner/leaf nodes
        assert len(pt.node_frames()) == 7
