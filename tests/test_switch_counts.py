"""The paper's world-switch formulas, asserted as invariants.

For a steady-state L2 page fault that writes ``n = 1`` guest page-table
entries (the leaf only) the paper derives (§2.2, §3.3.2):

* SPT-on-EPT:  4n + 8 = 12 world switches, 2n + 4 = 6 L0 exits
* EPT-on-EPT:  2n + 6 = 8 world switches,  n + 3 = 4 L0 exits
* PVM-on-EPT:  2n + 4 = 6 world switches,  0 L0 exits

and for a privileged L2 operation: kvm NST pays 2 L0 exits, PVM pays 1
L1 exit and 0 L0 exits (§2.1, §3).

:class:`TestFaultCountsOverN` takes the fault at n = 1, 2 and 3 — the
same leaf table, a fresh 2 MiB region, a fresh 1 GiB region — with
prefault on and off.  SPT-on-EPT and PVM follow their formulas at every
n; EPT-on-EPT measures the documented 8n / 4n (EXPERIMENTS.md
§"Invariants", DESIGN.md §4), one full EPT02-violation round per new
guest table page.
"""

import pytest

from repro import make_machine
from repro.guest.addrspace import Vma
from repro.hw.events import diff_snapshots
from repro.hw.types import MIB
from repro.hypervisors.base import MachineConfig


def _warm_machine(name, **kwargs):
    """Machine + ctx + proc with one leaf table already populated, so the
    next fault in the same 2 MiB region writes exactly one entry."""
    m = make_machine(name, **kwargs)
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 1 * MIB)
    m.touch(ctx, proc, vma.start_vpn, write=True)  # cold: builds levels
    return m, ctx, proc, vma


def _fault_delta(m, ctx, proc, vma, vpn_offset=1):
    before = m.events.snapshot()
    m.touch(ctx, proc, vma.start_vpn + vpn_offset, write=True)
    delta = diff_snapshots(before, m.events.snapshot())
    switches = delta.get("world_switches", {}).get("total", 0)
    l0 = delta.get("l0_exits", {}).get("total", 0)
    return switches, l0


class TestSteadyStateFaultCounts:
    def test_spt_on_ept_4n_plus_8(self):
        m, ctx, proc, vma = _warm_machine("kvm-spt (NST)")
        switches, l0 = _fault_delta(m, ctx, proc, vma)
        assert switches == 12  # 4*1 + 8
        assert l0 == 6  # 2*1 + 4

    def test_ept_on_ept_2n_plus_6(self):
        m, ctx, proc, vma = _warm_machine("kvm-ept (NST)")
        switches, l0 = _fault_delta(m, ctx, proc, vma)
        assert l0 == 4  # n + 3
        assert switches == 8  # 2n + 6

    def test_pvm_on_ept_2n_plus_4(self):
        m, ctx, proc, vma = _warm_machine("pvm (NST)")
        switches, l0 = _fault_delta(m, ctx, proc, vma)
        assert l0 == 0  # the headline: no L0 involvement
        assert switches == 6  # 2*1 + 4

    def test_pvm_without_prefault_2n_plus_6(self):
        from repro.hypervisors.base import MachineConfig

        m, ctx, proc, vma = _warm_machine(
            "pvm (NST)", config=MachineConfig(prefault=False)
        )
        switches, l0 = _fault_delta(m, ctx, proc, vma)
        assert l0 == 0
        assert switches == 8  # the saved shadow-stale fault comes back

    def test_pvm_bm_same_counts(self):
        m, ctx, proc, vma = _warm_machine("pvm (BM)")
        switches, l0 = _fault_delta(m, ctx, proc, vma)
        assert switches == 6
        assert l0 == 0

    def test_kvm_ept_bm_guest_internal_only(self):
        m, ctx, proc, vma = _warm_machine("kvm-ept (BM)")
        before = m.events.snapshot()
        m.touch(ctx, proc, vma.start_vpn + 1, write=True)
        delta = diff_snapshots(before, m.events.snapshot())
        # Guest #PF handled inside the guest; one EPT violation round.
        assert delta.get("l0_exits", {}).get("total", 0) == 1
        assert delta["guest_transitions"]["total"] == 2


class TestPrivilegedOpCounts:
    def test_kvm_nst_two_l0_exits(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.hypercall(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 2
        assert delta["world_switches"]["total"] == 4

    def test_pvm_nst_one_l1_exit_zero_l0(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.hypercall(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta.get("l0_exits", {}).get("total", 0) == 0
        assert delta["world_switches"]["total"] == 2  # exit + entry

    def test_kvm_bm_one_l0_exit(self):
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.hypercall(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 1


class TestSyscallCounts:
    def test_pvm_direct_switch_no_hypervisor(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.syscall(ctx, proc, "get_pid")
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["world_switches"].get("pvm:user<->kernel", 0) == 2
        assert delta.get("l1_exits", {}).get("total", 0) == 0

    def test_pvm_slow_path_enters_hypervisor(self):
        from repro.hypervisors.base import MachineConfig

        m = make_machine("pvm (NST)", config=MachineConfig(direct_switch=False))
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.syscall(ctx, proc, "get_pid")
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l1_exits"]["total"] == 2  # syscall + sysret

    def test_kvm_nst_syscall_stays_in_l2(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.syscall(ctx, proc, "get_pid")
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta.get("l0_exits", {}).get("total", 0) == 0

    def test_kvm_spt_kpti_syscall_traps(self):
        m = make_machine("kvm-spt (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.syscall(ctx, proc, "get_pid")
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"].get("cr3-switch", 0) == 1


class TestInterruptCounts:
    def test_pvm_nst_single_l0_exit_per_interrupt(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.deliver_timer(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 1  # injection only

    def test_kvm_nst_interrupt_needs_merge(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.deliver_timer(ctx)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 2  # inject + vmresume

    def test_pvm_halt_zero_l0(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.halt(ctx, wake_after_ns=1000)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta.get("l0_exits", {}).get("total", 0) == 0

    def test_kvm_nst_halt_goes_through_l0(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        before = m.events.snapshot()
        m.halt(ctx, wake_after_ns=1000)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"]["total"] == 2


#: A 1 GiB-aligned vpn: the warm page of the over-n cases.
_REGION = 1 << 18
#: The touched page's offset from the warm page, by n: the same leaf
#: table, a fresh 2 MiB region, a fresh 1 GiB region.
_FRESH_OFFSET = {1: 1, 2: 512, 3: 1 << 18}

#: (world switches, L0 exits) of one fault writing n guest entries.
_COUNTS = {
    "kvm-spt (NST)": lambda n, prefault: (4 * n + 8, 2 * n + 4),
    "pvm (NST)": lambda n, prefault: (2 * n + (4 if prefault else 6), 0),
    "pvm (BM)": lambda n, prefault: (2 * n + (4 if prefault else 6), 0),
    # Documented, not the paper's 2n + 6 / n + 3 (ROADMAP item 4).
    "kvm-ept (NST)": lambda n, prefault: (8 * n, 4 * n),
}


class TestFaultCountsOverN:
    @pytest.mark.parametrize("prefault", [True, False],
                             ids=["prefault", "no-prefault"])
    @pytest.mark.parametrize("n", sorted(_FRESH_OFFSET))
    @pytest.mark.parametrize("name", sorted(_COUNTS))
    def test_counts_follow_formula(self, name, n, prefault):
        m = make_machine(name, config=MachineConfig(prefault=prefault))
        ctx = m.new_context()
        proc = m.spawn_process([Vma(_REGION, _FRESH_OFFSET[3] + 1)])
        m.touch(ctx, proc, _REGION, write=True)  # cold: builds levels
        before = m.events.snapshot()
        m.touch(ctx, proc, _REGION + _FRESH_OFFSET[n], write=True)
        delta = diff_snapshots(before, m.events.snapshot())
        switches = delta.get("world_switches", {}).get("total", 0)
        l0 = delta.get("l0_exits", {}).get("total", 0)
        assert (switches, l0) == _COUNTS[name](n, prefault)
        # n really is the number of guest entries the fault wrote.
        assert len(proc.gpt.node_frames()) == 4 + (n > 1) + (n > 2)
