"""Behaviour specific to the KVM baseline machines."""

from repro import make_machine
from repro.hw.events import diff_snapshots
from repro.hw.types import KIB
from repro.hypervisors.base import MachineConfig


class TestKvmEptBm:
    def test_ept_violation_only_on_first_frame_touch(self):
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB, kind="file", file_key="f")
        m.touch(ctx, proc, vma.start_vpn, write=False)
        first = m.events.l0_exits["ept-violation"]
        m.munmap(ctx, proc, vma)
        vma2 = m.mmap(ctx, proc, 16 * KIB, kind="file", file_key="f")
        m.touch(ctx, proc, vma2.start_vpn, write=False)
        # Same page-cache frame: EPT warm for the data page; only the
        # re-allocated guest-table node frames (the pruned-and-rebuilt
        # PDPT/PD/PT chain) still violate, never the data frame again.
        again = m.events.l0_exits["ept-violation"]
        assert again <= first + 3

    def test_msr_exits_counted(self):
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        m.msr_access(ctx)
        assert m.events.emulations["msr"] == 1

    def test_halt_roundtrip_cost(self):
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        t0 = ctx.clock.now
        m.halt(ctx, wake_after_ns=10_000)
        cost = ctx.clock.now - t0 - 10_000
        assert cost == 2 * m.costs.hw_world_switch + m.costs.halt_wake_hw


class TestKvmSptBm:
    def test_gpt_write_traps_counted(self):
        m = make_machine("kvm-spt (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        before = m.events.l0_exits["gpt-write"]
        m.touch(ctx, proc, vma.start_vpn, write=True)
        # Cold fault: 4 table-entry writes, each a trap.
        assert m.events.l0_exits["gpt-write"] - before == 4

    def test_two_phase_fault(self):
        m = make_machine("kvm-spt (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.events.page_faults["phase1:guest-pt"] == 1
        assert m.events.page_faults["phase2:shadow-pt"] == 1

    def test_mmu_lock_serializes_concurrent_faults(self):
        m = make_machine("kvm-spt (BM)")
        assert m.mmu_lock.acquisitions == 0
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.mmu_lock.acquisitions >= 5  # 4 wp writes + 1 sync

    def test_fork_zaps_parent_spt(self):
        m = make_machine("kvm-spt (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.shadow.spt(proc).mapped_pages == 1
        child = m.fork(ctx, proc)
        # Parent SPT dropped (stale writable entries).
        assert m.shadow.spt(proc).mapped_pages == 0
        m.exit(ctx, child)

    def test_kpti_off_no_syscall_trap(self):
        m = make_machine("kvm-spt (BM)", config=MachineConfig(kpti=False))
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.l0_exits.total
        m.syscall(ctx, proc, "get_pid")
        assert m.events.l0_exits.total == before


class TestEptOnEpt:
    def test_vmcs_merge_per_resume(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        merges_before = m.vmcs_shadow.merges
        m.hypercall(ctx)
        assert m.vmcs_shadow.merges == merges_before + 1

    def test_ept12_and_ept02_populated(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.ept12.mapped_pages > 0
        assert m.ept02.mapped_pages > 0
        assert m.ept12.mapped_pages == m.ept02.mapped_pages

    def test_backing_chain_is_two_level(self):
        m = make_machine("kvm-ept (NST)")
        gfn1 = m.memory.gfn1_for(123)
        assert m.memory.gfn1_for(123) == gfn1  # stable
        hfn = m.memory.backing_frame(gfn1)
        assert m.memory.backing_frame(gfn1) == hfn
        assert m.memory.peek(123) == hfn

    def test_pio_goes_through_userspace_trips(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.pio(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 2 + m.costs.pio_userspace_trips


class TestSptOnEpt:
    def test_warm_ept01_fills_silently(self):
        m = make_machine("kvm-spt (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        before = m.events.l0_exits.total
        m.touch(ctx, proc, vma.start_vpn, write=True)
        delta = m.events.l0_exits.total - before
        # Warm EPT01 fills are free; all traps come from the SPT dance.
        assert m.memory.ept01.mapped_pages > 0
        assert delta == m.events.l0_exits.total - before

    def test_syscall_traps_through_l0_with_kpti(self):
        m = make_machine("kvm-spt (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.l0_exits.total
        m.syscall(ctx, proc, "get_pid")
        assert m.events.l0_exits.total - before == 2  # exit fwd + resume

    def test_worst_case_cold_fault(self):
        """A cold fault writing all 4 levels: 4*4+8 = 24 switches."""
        from repro.hw.events import diff_snapshots as diff

        m = make_machine("kvm-spt (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 * KIB)
        before = m.events.snapshot()
        m.touch(ctx, proc, vma.start_vpn, write=True)
        delta = diff(before, m.events.snapshot())
        assert delta["world_switches"]["total"] == 24
        assert delta["l0_exits"]["total"] == 12  # 2*4 + 4
