"""Tests for workload generators and the concurrency driver."""

import pytest

from repro import make_machine
from repro.hw.types import MIB
from repro.workloads import cloudsuite as cs
from repro.workloads import lmbench
from repro.workloads.apps import APPS, fluidanimate, kbuild, specjbb
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import WorkloadResult, gen_stepper, run_concurrent, touch_range


@pytest.fixture
def machine():
    return make_machine("pvm (NST)")


class TestDriver:
    def test_gen_stepper_exhaustion(self):
        def g():
            yield
            yield

        step = gen_stepper(g())
        assert step() is True
        assert step() is True
        assert step() is False

    def test_run_concurrent_requires_machines(self):
        with pytest.raises(ValueError):
            run_concurrent([], memalloc)

    def test_result_fields(self, machine):
        r = run_concurrent([machine] * 2, memalloc, total_bytes=256 << 10)
        assert isinstance(r, WorkloadResult)
        assert r.n == 2
        assert r.makespan_s > 0
        assert r.mean_completion_ns <= r.makespan_ns
        assert "world_switches" in r.counters

    def test_counters_not_double_counted_for_shared_machine(self, machine):
        r = run_concurrent([machine] * 3, memalloc, total_bytes=128 << 10)
        # Shared machine: one snapshot, not three.
        direct = machine.events.world_switches.total
        assert r.counters["world_switches"]["total"] == direct

    def test_touch_range_helper(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 8 << 12)
        steps = list(touch_range(machine, ctx, proc, vma.start_vpn, 8,
                                 yield_every=2))
        assert len(steps) == 4


class TestMemalloc:
    def test_touches_expected_pages(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        gen = memalloc(machine, ctx, proc, total_bytes=1 * MIB, release=True)
        for _ in gen:
            pass
        assert machine.events.page_faults.total >= 256

    def test_release_frees_vmas(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in memalloc(machine, ctx, proc, total_bytes=1 * MIB, release=True):
            pass
        assert len(proc.addr_space) == 0

    def test_no_release_accumulates(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in memalloc(machine, ctx, proc, total_bytes=1 * MIB,
                          release=False):
            pass
        assert proc.addr_space.total_pages == 256

    def test_invalid_sizes(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        with pytest.raises(ValueError):
            next(memalloc(machine, ctx, proc, total_bytes=0))


class TestLmbench:
    def test_all_process_benches_run(self, machine):
        for name, factory in lmbench.PROCESS_SUITE.items():
            ns = lmbench.measure_mean_op_ns(machine, factory, iterations=3)
            assert ns > 0, name

    def test_all_file_vm_benches_run(self, machine):
        for name, factory in lmbench.FILE_VM_SUITE.items():
            ns = lmbench.measure_mean_op_ns(machine, factory, iterations=3)
            assert ns > 0, name

    def test_prot_fault_needs_write_protection(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        gen = lmbench.prot_fault(machine, ctx, proc, iterations=3)
        for _ in gen:
            pass  # raises internally if a write unexpectedly succeeds

    def test_fork_leaves_no_zombies(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in lmbench.fork_proc(machine, ctx, proc, iterations=3):
            pass
        assert set(machine.kernel.processes) == {proc.pid}

    def test_sh_proc_process_tree(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in lmbench.sh_proc(machine, ctx, proc, iterations=2):
            pass
        assert set(machine.kernel.processes) == {proc.pid}


class TestApps:
    @pytest.mark.parametrize("app", list(APPS))
    def test_apps_run_to_completion(self, machine, app):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        params = {
            "kbuild": {"units": 2},
            "blogbench": {"rounds": 5},
            "specjbb2005": {"batches": 3},
            "fluidanimate": {"frames": 2},
        }[app]
        for _ in APPS[app](machine, ctx, proc, **params):
            pass
        assert ctx.clock.now > 0

    def test_fluidanimate_uses_halt(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in fluidanimate(machine, ctx, proc, frames=2,
                              barriers_per_frame=3):
            pass
        assert machine.events.hypercalls["halt"] == 6

    def test_kbuild_forks_compilers(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for _ in kbuild(machine, ctx, proc, units=2):
            pass
        # Compilers exited; only the driver process remains.
        assert set(machine.kernel.processes) == {proc.pid}

    def test_specjbb_deterministic(self):
        times = []
        for _ in range(2):
            m = make_machine("pvm (NST)")
            ctx = m.new_context()
            proc = m.spawn_process()
            for _ in specjbb(m, ctx, proc, batches=3):
                pass
            times.append(ctx.clock.now)
        assert times[0] == times[1]


class TestCloudSuite:
    @pytest.mark.parametrize("name", list(cs.CLOUDSUITE))
    def test_cloudsuite_runs(self, machine, name):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        params = {
            "data analytics": {"dataset_mb": 2},
            "graph analytics": {"graph_mb": 1, "steps": 200},
            "in-memory analytics": {"rounds": 2},
        }[name]
        for _ in cs.CLOUDSUITE[name](machine, ctx, proc, **params):
            pass
        assert ctx.clock.now > 0
