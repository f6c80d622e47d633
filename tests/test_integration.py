"""Integration tests across modules: full scenario runs and cross-scenario
consistency invariants."""

import pytest

from repro import SCENARIOS, make_machine
from repro.hw.types import MIB
from repro.workloads.lmbench import fork_proc, page_fault
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import run_concurrent


class TestCrossScenarioConsistency:
    """The same workload on different stacks must do the same *guest*
    work — only virtualization overhead may differ."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in SCENARIOS:
            m = make_machine(name)
            r = run_concurrent([m], memalloc, total_bytes=1 * MIB)
            out[name] = (m, r)
        return out

    def test_guest_fault_counts_identical(self, results):
        counts = {
            name: m.events.page_faults["phase1:guest-pt"]
            for name, (m, _) in results.items()
        }
        assert len(set(counts.values())) == 1, counts

    def test_guest_transition_parity(self, results):
        """Every machine leaves the guest in a consistent state: switch
        legs pair up (even counts) for all hypervisor boundaries."""
        for name, (m, _) in results.items():
            for key, count in m.events.world_switches.items():
                assert count % 2 == 0, (name, key)

    def test_pvm_never_exits_to_l0_for_memory(self, results):
        m, _ = results["pvm (NST)"]
        assert m.events.l0_exits.total == 0

    def test_ordering_matches_paper(self, results):
        t = {name: r.makespan_ns for name, (_, r) in results.items()}
        assert t["kvm-ept (BM)"] < t["pvm (BM)"]
        assert t["pvm (NST)"] < t["kvm-ept (NST)"]
        assert t["kvm-ept (NST)"] < t["kvm-spt (NST)"]

    def test_no_guest_frame_leaks(self, results):
        for name, (m, _) in results.items():
            usage = m.guest_phys.usage_by_tag()
            # All anonymous data pages were released by munmap; only
            # page-table frames (for live processes) remain.
            data = {t: n for t, n in usage.items() if t.startswith("pid")}
            assert not data, (name, data)


class TestForkAcrossScenarios:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_fork_bench_clean(self, name):
        m = make_machine(name)
        ctx = m.new_context()
        proc = m.spawn_process()
        for _ in fork_proc(m, ctx, proc, iterations=3):
            pass
        assert set(m.kernel.processes) == {proc.pid}
        assert ctx.clock.now > 0


class TestFilePageCacheAcrossScenarios:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_second_iteration_cheaper(self, name):
        """Page-cache-warm file faults must get cheaper after the first
        pass on every stack (EPT/SPT state for the frames is reused)."""
        m = make_machine(name)
        ctx = m.new_context()
        proc = m.spawn_process()
        gen = page_fault(m, ctx, proc, region_bytes=256 << 10, iterations=3)
        marks = [ctx.clock.now]
        for _ in gen:
            marks.append(ctx.clock.now)
        first = marks[1] - marks[0]
        second = marks[2] - marks[1]
        assert second <= first

    def test_nested_second_pass_much_cheaper(self):
        """In EPT-on-EPT the warm pass skips the whole nested dance."""
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        gen = page_fault(m, ctx, proc, region_bytes=256 << 10, iterations=2)
        marks = [ctx.clock.now]
        for _ in gen:
            marks.append(ctx.clock.now)
        assert (marks[2] - marks[1]) < 0.25 * (marks[1] - marks[0])


class TestSharedL0Coupling:
    def test_separate_machines_couple_only_via_l0(self):
        from repro.sim.locks import SimLock

        shared = SimLock("l0")
        machines = []
        for _ in range(4):
            m = make_machine("kvm-ept (NST)")
            m.l0_lock = shared
            machines.append(m)
        r4 = run_concurrent(machines, memalloc, total_bytes=512 << 10)
        single = make_machine("kvm-ept (NST)")
        r1 = run_concurrent([single], memalloc, total_bytes=512 << 10)
        assert r4.makespan_ns > 2 * r1.makespan_ns  # L0 contention


class TestEngineDeterminism:
    @pytest.mark.parametrize("name", ["pvm (NST)", "kvm-ept (NST)"])
    def test_repeat_runs_identical(self, name):
        times = []
        for _ in range(2):
            m = make_machine(name)
            r = run_concurrent([m] * 4, memalloc, total_bytes=256 << 10)
            times.append(r.makespan_ns)
        assert times[0] == times[1]
