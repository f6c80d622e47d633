"""Cross-cutting signature tests: each workload leaves the counter
footprint its design implies, per scenario.

These complement the per-figure benches: instead of timing, they check
*which machinery* each workload exercised — the kind of invariant that
catches a silently-miswired cost path.
"""

import pytest

from repro import make_machine
from repro.hypervisors.base import MachineConfig
from repro.hw.types import MIB
from repro.workloads.apps import blogbench, fluidanimate, kbuild, specjbb
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import run_concurrent


def _run(machine, factory, **params):
    ctx = machine.new_context()
    proc = machine.spawn_process()
    for _ in factory(machine, ctx, proc, **params):
        pass
    return ctx


class TestFluidanimateSignature:
    def test_pvm_halts_via_hypercall(self):
        m = make_machine("pvm (NST)")
        _run(m, fluidanimate, frames=3, barriers_per_frame=3)
        assert m.events.hypercalls["halt"] == 9  # 3 frames x 3 barriers
        # ... and none of them reached L0.
        assert m.events.l0_exits.get("l2-exit:hlt", 0) == 0

    def test_kvm_nst_halts_via_l0(self):
        m = make_machine("kvm-ept (NST)")
        _run(m, fluidanimate, frames=3, barriers_per_frame=3)
        assert m.events.l0_exits["l2-exit:hlt"] == 9


class TestBlogbenchSignature:
    def test_syscall_heavy(self):
        m = make_machine("pvm (NST)")
        _run(m, blogbench, rounds=10)
        # Every round drives at least six syscalls (create, write, three
        # read+stat pairs), each a pair of direct switches.
        direct = m.events.world_switches["pvm:user<->kernel"]
        assert direct >= 10 * 12

    def test_cache_pages_warm_after_first_round(self):
        m = make_machine("pvm (NST)")
        _run(m, blogbench, rounds=30)
        # Far fewer faults than cache touches: the article cache is warm.
        touches = 30 * 8
        assert m.events.page_faults.total < touches


class TestSpecjbbSignature:
    def test_heap_growth_faults(self):
        m = make_machine("pvm (NST)")
        _run(m, specjbb, batches=5, heap_growth_pages=10, warm_touches=0)
        # Exactly the growth pages fault (plus none from warm touches).
        assert m.events.page_faults["phase1:guest-pt"] == 50

    def test_warm_touches_hit_tlb(self):
        m = make_machine("pvm (NST)")
        ctx = _run(m, specjbb, batches=4, heap_growth_pages=4,
                   warm_touches=64)
        assert ctx.tlb.stats.hits > 100


class TestKbuildSignature:
    def test_forks_compilers_per_unit(self):
        m = make_machine("pvm (NST)")
        _run(m, kbuild, units=3)
        # One iret per fault plus fork/exec traffic; most visible: the
        # fork lock saw one acquisition per compiler.
        assert m.guest_fork_lock.acquisitions == 3

    def test_file_io_present(self):
        m = make_machine("pvm (NST)")
        _run(m, kbuild, units=2)
        assert m.events.guest_transitions.total == 0  # PVM: no hw-internal
        # open/close + reads + writes happened via direct switches.
        assert m.events.world_switches["pvm:user<->kernel"] > 2 * 8


class TestMemallocSignature:
    @pytest.mark.parametrize("name,expect_l0", [
        ("pvm (NST)", 0),
        ("pvm-dp (NST)", 0),
    ])
    def test_zero_l0_for_pvm_family(self, name, expect_l0):
        m = make_machine(name)
        r = run_concurrent([m], memalloc, total_bytes=1 * MIB)
        assert r.counters["l0_exits"].get("total", 0) == expect_l0

    def test_direct_paging_scales_like_pvm(self):
        times = {}
        for name in ("pvm (NST)", "pvm-dp (NST)"):
            m = make_machine(name)
            r = run_concurrent([m] * 8, memalloc, total_bytes=1 * MIB)
            times[name] = r.makespan_ns
        single = {}
        for name in ("pvm (NST)", "pvm-dp (NST)"):
            m = make_machine(name)
            r = run_concurrent([m], memalloc, total_bytes=1 * MIB)
            single[name] = r.makespan_ns
        for name in times:
            assert times[name] < 1.3 * single[name], name

    def test_thp_changes_fault_signature_not_correctness(self):
        for name in ("pvm (NST)", "kvm-ept (NST)"):
            m4k = make_machine(name)
            mthp = make_machine(name, config=MachineConfig(thp=True))
            r4k = run_concurrent([m4k], memalloc, total_bytes=2 * MIB,
                                 chunk_bytes=2 * MIB)
            rthp = run_concurrent([mthp], memalloc, total_bytes=2 * MIB,
                                  chunk_bytes=2 * MIB)
            f4k = m4k.events.page_faults.total
            fthp = mthp.events.page_faults.total
            # A handful of residual faults remain (table-page EPT fills);
            # the per-data-page fault storm is gone.
            assert fthp <= max(8, f4k // 64), name
            assert rthp.makespan_ns < r4k.makespan_ns, name


class TestInterruptSignature:
    def test_compute_heavy_run_collects_timer_ticks(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        m.compute(ctx, 10 * m.costs.timer_interval)
        assert m.events.interrupts["timer"] == 10
        # Each tick: one L0 injection, the rest inside L1.
        assert m.events.l0_exits["interrupt"] == 10
