"""Tests for the §5 future-work extensions."""

import pytest

from repro import SCENARIOS, make_machine
from repro.hw.events import diff_snapshots
from repro.hw.types import KIB, MIB
from repro.hypervisors.base import MachineConfig


def _setup(name="pvm (NST)", **cfg):
    m = make_machine(name, config=MachineConfig(**cfg))
    ctx = m.new_context()
    proc = m.spawn_process()
    return m, ctx, proc


def _syscall_ns(m, ctx, proc, n=50):
    t0 = ctx.clock.now
    for _ in range(n):
        m.syscall(ctx, proc, "get_pid")
    return (ctx.clock.now - t0) / n


def _fault_delta(m, ctx, proc):
    vma = m.mmap(ctx, proc, 1 * MIB)
    m.touch(ctx, proc, vma.start_vpn, write=True)  # warm the leaf table
    before = m.events.snapshot()
    t0 = ctx.clock.now
    m.touch(ctx, proc, vma.start_vpn + 1, write=True)
    delta = diff_snapshots(before, m.events.snapshot())
    return delta, ctx.clock.now - t0


class TestAdvancedDirectSwitch:
    def test_saves_one_ring_transition(self):
        m1, c1, p1 = _setup(advanced_direct_switch=False)
        m2, c2, p2 = _setup(advanced_direct_switch=True)
        base = _syscall_ns(m1, c1, p1)
        fast = _syscall_ns(m2, c2, p2)
        assert base - fast == m1.costs.ring_transition

    def test_approaches_kvm_without_kpti(self):
        """§5's stated goal: comparable syscall latency to the KVM
        baselines without KPTI (within a small constant)."""
        m, ctx, proc = _setup(advanced_direct_switch=True)
        kvm = make_machine("kvm-ept (NST)", config=MachineConfig(kpti=False))
        kctx = kvm.new_context()
        kproc = kvm.spawn_process()
        pvm_ns = _syscall_ns(m, ctx, proc)
        kvm_ns = _syscall_ns(kvm, kctx, kproc)
        assert pvm_ns < 4 * kvm_ns


class TestSwitcherFaultTriage:
    def test_saves_one_hypervisor_exit(self):
        m1, c1, p1 = _setup(switcher_fault_triage=False)
        m2, c2, p2 = _setup(switcher_fault_triage=True)
        d1, t1 = _fault_delta(m1, c1, p1)
        d2, t2 = _fault_delta(m2, c2, p2)
        # One fewer l1 exit (#PF no longer enters the hypervisor).
        assert (d2.get("l1_exits", {}).get("#PF", 0)
                == d1["l1_exits"].get("#PF", 0) - 1)
        assert t2 < t1

    def test_shadow_stale_faults_still_exit(self):
        m, ctx, proc = _setup(switcher_fault_triage=True, prefault=False)
        vma = m.mmap(ctx, proc, 64 * KIB)
        before = m.events.snapshot()
        m.touch(ctx, proc, vma.start_vpn, write=True)
        delta = diff_snapshots(before, m.events.snapshot())
        # Without prefault the shadow-stale retry must reach PVM.
        assert delta["l1_exits"].get("#PF", 0) >= 1

    def test_counts_still_zero_l0(self):
        m, ctx, proc = _setup(switcher_fault_triage=True)
        _fault_delta(m, ctx, proc)
        assert m.events.l0_exits.total == 0


class TestWpLessSync:
    def test_no_gpt_write_exits(self):
        m, ctx, proc = _setup(wp_less_sync=True)
        delta, _ = _fault_delta(m, ctx, proc)
        assert delta.get("l1_exits", {}).get("gpt-write", 0) == 0
        assert delta["emulations"].get("wpless-batch-sync", 0) >= 1

    def test_steady_fault_is_constant_4_switches(self):
        m, ctx, proc = _setup(wp_less_sync=True)
        delta, _ = _fault_delta(m, ctx, proc)
        # 2 (deliver) + 2 (iret): the 2n write traps are gone.
        assert delta["world_switches"]["total"] == 4

    def test_faster_than_wp(self):
        m1, c1, p1 = _setup(wp_less_sync=False)
        m2, c2, p2 = _setup(wp_less_sync=True)
        _, t1 = _fault_delta(m1, c1, p1)
        _, t2 = _fault_delta(m2, c2, p2)
        assert t2 < t1

    def test_correctness_preserved(self):
        """Shadow state still converges: retouch after munmap faults."""
        from repro.guest.addrspace import SegfaultError

        m, ctx, proc = _setup(wp_less_sync=True)
        vma = m.mmap(ctx, proc, 64 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        m.munmap(ctx, proc, vma)
        with pytest.raises(SegfaultError):
            m.touch(ctx, proc, vma.start_vpn, write=True)


class TestDirectPaging:
    def test_registered_scenario(self):
        assert "pvm-dp (NST)" in SCENARIOS
        m = make_machine("pvm-dp (NST)")
        assert m.name == "pvm-dp (NST)"
        assert m.nested

    def test_constant_six_switches_per_fault(self):
        m, ctx, proc = _setup("pvm-dp (NST)")
        delta, _ = _fault_delta(m, ctx, proc)
        assert delta["world_switches"]["total"] == 6
        assert delta.get("l0_exits", {}).get("total", 0) == 0

    def test_cold_fault_also_constant(self):
        """Unlike shadow paging, table depth does not multiply switches."""
        m, ctx, proc = _setup("pvm-dp (NST)")
        vma = m.mmap(ctx, proc, 1 * MIB)
        before = m.events.snapshot()
        m.touch(ctx, proc, vma.start_vpn, write=True)  # cold: 4 levels
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["world_switches"]["total"] == 6

    def test_validation_counted(self):
        m, ctx, proc = _setup("pvm-dp (NST)")
        vma = m.mmap(ctx, proc, 64 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.validated_updates >= 4  # all four cold levels validated
        assert m.events.hypercalls["set_pte"] >= 1

    def test_no_shadow_tables_built(self):
        m, ctx, proc = _setup("pvm-dp (NST)")
        vma = m.mmap(ctx, proc, 64 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        assert m.shadow is None  # no shadow core at all
        assert m.accessed_bit_tables(proc) == [proc.gpt]

    def test_mixed_workload_runs(self):
        from repro.workloads.memalloc import memalloc
        from repro.workloads.ops import run_concurrent

        m = make_machine("pvm-dp (NST)")
        r = run_concurrent([m] * 2, memalloc, total_bytes=256 * KIB)
        assert r.makespan_ns > 0
        assert m.events.l0_exits.total == 0

    def test_faster_than_shadow_for_warm_tables(self):
        m_dp, c_dp, p_dp = _setup("pvm-dp (NST)")
        m_sh, c_sh, p_sh = _setup("pvm (NST)")
        _, t_dp = _fault_delta(m_dp, c_dp, p_dp)
        _, t_sh = _fault_delta(m_sh, c_sh, p_sh)
        # Warm-table steady state: both constant; dp avoids the per-write
        # trap so it should not be slower.
        assert t_dp <= t_sh * 1.35
