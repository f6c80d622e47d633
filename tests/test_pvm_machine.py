"""PVM-machine-specific behaviour: optimizations, flushes, security."""

import pytest

from repro import make_machine
from repro.core.switcher import GuestWorld
from repro.guest.addrspace import SegfaultError
from repro.hw.types import KIB
from repro.hypervisors.base import MachineConfig


def _setup(name="pvm (NST)", **cfg):
    m = make_machine(name, config=MachineConfig(**cfg))
    ctx = m.new_context()
    proc = m.spawn_process()
    return m, ctx, proc


class TestPrefault:
    def test_prefault_fills_shadow_on_iret(self):
        m, ctx, proc = _setup(prefault=True)
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.prefaulter.fills == 1

    def test_no_prefault_pays_shadow_fault(self):
        m, ctx, proc = _setup(prefault=False)
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.prefaulter.fills == 0
        # Two fault phases recorded: guest and shadow.
        assert m.events.page_faults["phase1:guest-pt"] == 1
        assert m.events.page_faults["phase2:shadow-pt"] == 1

    def test_prefault_avoids_phase2(self):
        m, ctx, proc = _setup(prefault=True)
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.events.page_faults["phase2:shadow-pt"] == 0


class TestPcidMapping:
    def test_distinct_asids_per_process(self):
        m, ctx, p1 = _setup(pcid_mapping=True)
        p2 = m.spawn_process()
        assert m.asid_for(p1) != m.asid_for(p2)
        assert m.asid_for(p1) != m.asid_for(p1, kernel_half=True)

    def test_disabled_shares_asid(self):
        m, ctx, p1 = _setup(pcid_mapping=False)
        p2 = m.spawn_process()
        assert m.asid_for(p1) == m.asid_for(p2)

    def test_disabled_flushes_on_cr3_load(self):
        m, ctx, proc = _setup(pcid_mapping=False)
        before = m.events.tlb_flushes["cr3-load"]
        m.syscall(ctx, proc, "get_pid")  # two direct switches
        assert m.events.tlb_flushes["cr3-load"] - before == 2

    def test_enabled_no_flush_on_switch(self):
        m, ctx, proc = _setup(pcid_mapping=True)
        m.syscall(ctx, proc, "get_pid")
        assert m.events.tlb_flushes["cr3-load"] == 0

    def test_munmap_flush_granularity(self):
        m, ctx, proc = _setup(pcid_mapping=True)
        m2, ctx2, proc2 = _setup(pcid_mapping=False)
        for mm, cc, pp in ((m, ctx, proc), (m2, ctx2, proc2)):
            vma = mm.mmap(cc, pp, 32 * KIB)
            mm.touch(cc, pp, vma.start_vpn, write=True)
            mm.munmap(cc, pp, vma)
        assert m.events.tlb_flushes["pcid"] >= 1
        assert m2.events.tlb_flushes["vpid"] >= 1

    def test_broadcast_shootdown_costs_initiator(self):
        m, ctx, proc = _setup(pcid_mapping=False)
        other = m.new_context()
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        t0 = ctx.clock.now
        m.munmap(ctx, proc, vma)
        # IPI cost for the one remote context is charged to the caller.
        assert ctx.clock.now - t0 >= m.costs.tlb_shootdown_ipi
        assert other.clock.now == 0  # remote clock untouched


class TestDualShadowTables:
    def test_kpti_dual_tables_synced(self):
        m, ctx, proc = _setup(kpti=True)
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.shadow.lookup(proc, vma.start_vpn, "user") is not None
        assert m.shadow.lookup(proc, vma.start_vpn, "kernel") is not None

    def test_no_kpti_single_table(self):
        m, ctx, proc = _setup(kpti=False)
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.shadow.lookup(proc, vma.start_vpn, "kernel") is None


class TestSecurityInvariants:
    def test_registers_cleared_after_every_exit(self):
        m, ctx, proc = _setup()
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        state = m.hv.switcher.state_for(ctx.cpu_id)
        assert state.regs_cleared

    def test_guest_runs_deprivileged(self):
        m, ctx, proc = _setup()
        state = m.hv.switcher.state_for(ctx.cpu_id)
        # After any operation the guest is back in a guest world, never
        # left in the hypervisor.
        m.syscall(ctx, proc, "get_pid")
        assert state.world in (GuestWorld.USER, GuestWorld.KERNEL)

    def test_gpt_write_protected_after_first_fault(self):
        m, ctx, proc = _setup()
        vma = m.mmap(ctx, proc, 32 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert set(proc.gpt.node_frames()) <= m.shadow.write_protected_frames


class TestSegfaultDelivery:
    @pytest.mark.parametrize("ds", [True, False])
    def test_prot_fault_restores_user_world(self, ds):
        m, ctx, proc = _setup(direct_switch=ds)
        vma = m.mmap(ctx, proc, 16 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        m.mprotect(ctx, proc, vma, writable=False)
        with pytest.raises(SegfaultError):
            m.touch(ctx, proc, vma.start_vpn, write=True)
        state = m.hv.switcher.state_for(ctx.cpu_id)
        assert state.world is GuestWorld.USER
        # The machine remains fully usable.
        m.syscall(ctx, proc, "get_pid")


class TestFaultEconomy:
    def test_pvm_nst_faults_cheaper_than_kvm_nst(self):
        m_pvm, ctx_p, proc_p = _setup()
        m_kvm = make_machine("kvm-ept (NST)")
        ctx_k = m_kvm.new_context()
        proc_k = m_kvm.spawn_process()
        for m, ctx, proc in ((m_pvm, ctx_p, proc_p), (m_kvm, ctx_k, proc_k)):
            vma = m.mmap(ctx, proc, 256 * KIB)
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
        assert ctx_p.clock.now < ctx_k.clock.now / 2

    def test_nested_pvm_close_to_bare_metal_pvm(self):
        m_nst, ctx_n, proc_n = _setup("pvm (NST)")
        m_bm, ctx_b, proc_b = _setup("pvm (BM)")
        for m, ctx, proc in ((m_nst, ctx_n, proc_n), (m_bm, ctx_b, proc_b)):
            vma = m.mmap(ctx, proc, 256 * KIB)
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
        assert ctx_n.clock.now < 1.6 * ctx_b.clock.now
