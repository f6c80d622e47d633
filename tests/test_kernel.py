"""Unit tests for the guest kernel: demand paging, COW, fork/exec/exit."""

import pytest

from repro.guest.addrspace import SegfaultError, Vma
from repro.guest.kernel import GuestKernel
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.types import MIB, AccessType, HardwareError


def fault_in(kernel, proc, vpn, access):
    """The kernel's fix of a fault on ``vpn``, given the guest entry a
    fault handler looks up first."""
    return kernel.fix_fault(proc, vpn, access, proc.gpt.lookup(vpn))


@pytest.fixture
def kernel():
    return GuestKernel(PhysicalMemory("g", 32 * MIB), DEFAULT_COSTS)


@pytest.fixture
def proc(kernel):
    return kernel.create_process()


class TestProcessLifecycle:
    def test_pids_monotonic(self, kernel):
        p1, p2 = kernel.create_process(), kernel.create_process()
        assert p2.pid == p1.pid + 1
        assert kernel.processes[p1.pid] is p1

    def test_initial_vmas(self, kernel):
        p = kernel.create_process(vmas=[Vma(0x400, 16, kind="text")])
        assert p.addr_space.covers(0x400)

    def test_exit_releases_frames(self, kernel):
        free0 = kernel.phys.free_frames
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 4 * MIB)
        for vpn in range(vma.start_vpn, vma.start_vpn + 20):
            fault_in(kernel, proc, vpn, AccessType.WRITE)
        kernel.exit_process(proc)
        assert kernel.phys.free_frames == free0
        assert proc.pid not in kernel.processes

    def test_double_exit_rejected(self, kernel, proc):
        kernel.exit_process(proc)
        with pytest.raises(HardwareError):
            kernel.exit_process(proc)


class TestDemandPaging:
    def test_fault_outside_vma_segfaults(self, kernel, proc):
        with pytest.raises(SegfaultError):
            fault_in(kernel, proc, 0x1234, AccessType.READ)

    def test_anon_fault_maps_page(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB)
        fix = fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        assert proc.gpt.lookup(vma.start_vpn).frame == fix.pte.frame
        assert fix.entry_writes >= 1
        assert not fix.cow_break

    def test_first_fault_builds_levels(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB)
        fix = fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        assert fix.entry_writes == 4  # fresh table: all levels written
        fix2 = fault_in(kernel, proc, vma.start_vpn + 1, AccessType.WRITE)
        assert fix2.entry_writes == 1  # neighbour: leaf only

    def test_write_to_readonly_vma_segfaults(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB, writable=False)
        with pytest.raises(SegfaultError):
            fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)

    def test_readonly_vma_read_fault_ok(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB, writable=False)
        fix = fault_in(kernel, proc, vma.start_vpn, AccessType.READ)
        assert not fix.pte.writable

    def test_page_cache_reuse(self, kernel, proc):
        v1 = kernel.sys_mmap(proc, 1 * MIB, writable=False, kind="file",
                             file_key="f")
        f1 = fault_in(kernel, proc, v1.start_vpn, AccessType.READ).pte.frame
        kernel.sys_munmap(proc, v1)
        v2 = kernel.sys_mmap(proc, 1 * MIB, writable=False, kind="file",
                             file_key="f")
        f2 = fault_in(kernel, proc, v2.start_vpn, AccessType.READ).pte.frame
        assert f1 == f2  # same file offset -> same page-cache frame

    def test_page_cache_distinct_files(self, kernel, proc):
        v1 = kernel.sys_mmap(proc, 1 * MIB, writable=False, kind="file",
                             file_key="a")
        v2 = kernel.sys_mmap(proc, 1 * MIB, writable=False, kind="file",
                             file_key="b")
        f1 = fault_in(kernel, proc, v1.start_vpn, AccessType.READ).pte.frame
        f2 = fault_in(kernel, proc, v2.start_vpn, AccessType.READ).pte.frame
        assert f1 != f2

    def test_cache_frames_survive_exit(self, kernel):
        p = kernel.create_process()
        v = kernel.sys_mmap(p, 1 * MIB, writable=False, kind="file",
                            file_key="f")
        frame = fault_in(kernel, p, v.start_vpn, AccessType.READ).pte.frame
        kernel.exit_process(p)
        assert frame in kernel._cached_frames


class TestMmapFamily:
    def test_mmap_is_lazy(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 4 * MIB)
        assert proc.gpt.mapped_pages == 0
        assert vma.npages == 1024

    def test_munmap_unmaps_touched_pages(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB)
        for vpn in range(vma.start_vpn, vma.start_vpn + 5):
            fault_in(kernel, proc, vpn, AccessType.WRITE)
        work = kernel.sys_munmap(proc, vma)
        assert work.entry_writes == 5
        assert proc.gpt.mapped_pages == 0

    def test_mprotect_rewrites_present_ptes(self, kernel, proc):
        vma = kernel.sys_mmap(proc, 1 * MIB)
        for vpn in range(vma.start_vpn, vma.start_vpn + 3):
            fault_in(kernel, proc, vpn, AccessType.WRITE)
        writes = kernel.sys_mprotect(proc, vma, writable=False)
        assert writes == 3
        assert not proc.gpt.lookup(vma.start_vpn).writable
        # A later write fault (VMA re-enabled) upgrades in place.
        kernel.sys_mprotect(proc, vma, writable=True)
        fix = fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        assert fix.pte.writable


class TestForkCow:
    def _parent_with_pages(self, kernel, n=8):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, n << 12)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            fault_in(kernel, proc, vpn, AccessType.WRITE)
        return proc, vma

    def test_fork_shares_frames_readonly(self, kernel):
        proc, vma = self._parent_with_pages(kernel)
        work = kernel.sys_fork(proc)
        child = work.child
        assert work.pages_shared == 8
        assert work.parent_writes == 8
        for vpn in range(vma.start_vpn, vma.end_vpn):
            ppte, cpte = proc.gpt.lookup(vpn), child.gpt.lookup(vpn)
            assert ppte.frame == cpte.frame
            assert not ppte.writable and not cpte.writable

    def test_fork_does_not_allocate_data_frames(self, kernel):
        proc, _ = self._parent_with_pages(kernel)
        used_before = kernel.phys.used_frames
        kernel.sys_fork(proc)
        used_after = kernel.phys.used_frames
        # Only page-table frames were allocated, no data pages.
        data_tags = kernel.phys.usage_by_tag()
        assert used_after > used_before
        assert all(
            t.startswith("pt:") or t.startswith("pid") or t == "page-cache"
            for t in data_tags
        )

    def test_cow_break_on_parent_write(self, kernel):
        proc, vma = self._parent_with_pages(kernel)
        child = kernel.sys_fork(proc).child
        old_frame = proc.gpt.lookup(vma.start_vpn).frame
        fix = fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        assert fix.cow_break
        assert proc.gpt.lookup(vma.start_vpn).frame != old_frame
        # Child still sees the original frame.
        assert child.gpt.lookup(vma.start_vpn).frame == old_frame

    def test_cow_refcounting_frees_on_last_drop(self, kernel):
        free0 = kernel.phys.free_frames
        proc, _ = self._parent_with_pages(kernel)
        child = kernel.sys_fork(proc).child
        kernel.exit_process(child)
        kernel.exit_process(proc)
        assert kernel.phys.free_frames == free0

    def test_grandchild_fork(self, kernel):
        proc, vma = self._parent_with_pages(kernel)
        child = kernel.sys_fork(proc).child
        grand = kernel.sys_fork(child).child
        frame = proc.gpt.lookup(vma.start_vpn).frame
        assert grand.gpt.lookup(vma.start_vpn).frame == frame
        kernel.exit_process(grand)
        kernel.exit_process(child)
        # Parent's mapping still valid after descendants exit.
        assert proc.gpt.lookup(vma.start_vpn).frame == frame


class TestExec:
    def test_exec_resets_image(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 1 * MIB)
        fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        work = kernel.sys_exec(proc, image_pages=32)
        assert work.entry_writes == 1  # the touched page was torn down
        assert not proc.addr_space.covers(vma.start_vpn)
        # Fresh text+data VMAs exist.
        kinds = {v.kind for v in proc.addr_space}
        assert kinds == {"text", "anon"}

    def test_exec_clears_cow_state(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 1 * MIB)
        fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        kernel.sys_fork(proc)
        kernel.sys_exec(proc)
        assert not proc.cow_pages
