"""Tests for deterministic fault injection and failure recovery.

Covers the fault plan's determinism contract, the runtime supervisor
(crash detection, backoff restarts, availability accounting), migration
retry, lock-stall injection, virtio completion errors, and the
``chaos`` marker's determinism gate.
"""

import pytest

from repro import make_machine
from repro.bench import experiments
from repro.containers.container import SecureContainer
from repro.containers.migration import MigrationManager
from repro.containers.runtime import (
    BOOT_NS,
    KVM_NST_CAPACITY,
    ContainerBootError,
    RunDRuntime,
    RuntimeError_,
    SupervisorPolicy,
)
from repro.faults import (
    KNOWN_SITES,
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_GUEST_PHYS,
    SITE_L0_STALL,
    SITE_MEMORY_PRESSURE,
    SITE_MIGRATION_COPY,
    SITE_VIRTIO_COMPLETION,
    FaultPlan,
    IoCompletionError,
    MigrationLinkError,
)
from repro.io.devices import IO_RETRY_LIMIT
from repro.io.virtio import STATUS_ERROR, STATUS_OK, VirtQueue
from repro.sim.clock import Clock
from repro.sim.engine import Engine, SimTask, StuckTaskError
from repro.sim.locks import SimLock


def _busy_workload(machine, ctx, proc, loops: int = 10):
    for _ in range(loops):
        machine.syscall(ctx, proc, "get_pid")
        yield


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().add("no.such.site", probability=0.5)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().add(SITE_GUEST_PANIC, probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan().add(SITE_GUEST_PANIC, probability=-0.1)

    def test_no_injector_never_fires_and_never_draws(self):
        plan = FaultPlan(seed=1)
        assert not plan.fires(SITE_GUEST_PANIC, 0)
        # No stream was even created for the un-registered site.
        assert not plan._streams

    def test_same_seed_same_sequence(self):
        seqs = []
        for _ in range(2):
            plan = FaultPlan(seed=123)
            plan.add(SITE_GUEST_PANIC, probability=0.3)
            seqs.append([plan.fires(SITE_GUEST_PANIC, t) for t in range(200)])
        assert seqs[0] == seqs[1]
        assert any(seqs[0])  # p=0.3 over 200 draws

    def test_different_seed_different_sequence(self):
        def seq(seed):
            plan = FaultPlan(seed=seed)
            plan.add(SITE_GUEST_PANIC, probability=0.3)
            return [plan.fires(SITE_GUEST_PANIC, t) for t in range(200)]

        assert seq(1) != seq(2)

    def test_sites_have_independent_streams(self):
        """Querying one site must not shift another site's outcomes."""

        def panic_seq(also_query_boot):
            plan = FaultPlan(seed=7)
            plan.add(SITE_GUEST_PANIC, probability=0.3)
            plan.add(SITE_CONTAINER_BOOT, probability=0.3)
            out = []
            for t in range(100):
                if also_query_boot:
                    plan.fires(SITE_CONTAINER_BOOT, t)
                out.append(plan.fires(SITE_GUEST_PANIC, t))
            return out

        assert panic_seq(False) == panic_seq(True)

    def test_activity_window(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_GUEST_PANIC, probability=1.0,
                 after_ns=100, until_ns=200)
        assert not plan.fires(SITE_GUEST_PANIC, 99)
        assert plan.fires(SITE_GUEST_PANIC, 100)
        assert plan.fires(SITE_GUEST_PANIC, 199)
        assert not plan.fires(SITE_GUEST_PANIC, 200)

    def test_max_fires_caps_injector(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_GUEST_PANIC, probability=1.0, max_fires=2)
        fired = [plan.fires(SITE_GUEST_PANIC, t) for t in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.counts[SITE_GUEST_PANIC] == 2
        assert plan.total_fires == 2

    def test_snapshot_sorted(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_GUEST_PANIC, probability=1.0)
        plan.add(SITE_CONTAINER_BOOT, probability=1.0)
        plan.fires(SITE_GUEST_PANIC, 0)
        plan.fires(SITE_CONTAINER_BOOT, 0)
        assert list(plan.snapshot()) == sorted(plan.snapshot())

    def test_uniform_shape_lane_does_not_perturb_fires(self):
        def seq(with_shapes):
            plan = FaultPlan(seed=5)
            plan.add(SITE_MIGRATION_COPY, probability=0.5)
            out = []
            for t in range(50):
                if with_shapes:
                    plan.uniform(SITE_MIGRATION_COPY, 0.1, 0.9)
                out.append(plan.fires(SITE_MIGRATION_COPY, t))
            return out

        assert seq(False) == seq(True)

    def test_known_sites_cover_all_constants(self):
        assert KNOWN_SITES == {
            SITE_CONTAINER_BOOT, SITE_GUEST_PANIC, SITE_L0_STALL,
            SITE_VIRTIO_COMPLETION, SITE_MIGRATION_COPY, SITE_GUEST_PHYS,
            SITE_MEMORY_PRESSURE,
        }


# ---------------------------------------------------------------------------
# StuckTaskError (engine step budget)
# ---------------------------------------------------------------------------


class TestStuckTaskError:
    def _spinner(self, name):
        clock = Clock()

        def step():
            clock.advance(1)
            return True

        return SimTask(name=name, clock=clock, stepper=step)

    def test_single_task_carries_diagnostics(self):
        engine = Engine(max_steps=10)
        engine.add(self._spinner("looper"))
        with pytest.raises(StuckTaskError) as exc:
            engine.run()
        err = exc.value
        assert err.task_name == "looper"
        assert err.max_steps == 10
        assert err.steps >= 10
        assert err.now_ns == err.steps  # spinner advances 1 ns per step
        assert "looper" in str(err)

    def test_multi_task_names_heaviest(self):
        engine = Engine(max_steps=10)
        engine.add(self._spinner("a"))
        engine.add(self._spinner("b"))
        with pytest.raises(StuckTaskError) as exc:
            engine.run()
        assert exc.value.task_name in ("a", "b")

    def test_is_a_runtime_error(self):
        # Pre-existing callers catch RuntimeError; the subclass must
        # keep satisfying them.
        assert issubclass(StuckTaskError, RuntimeError)


# ---------------------------------------------------------------------------
# Lock stall injection
# ---------------------------------------------------------------------------


class TestLockStall:
    def test_stall_hook_extends_hold(self):
        lock = SimLock("l0")
        plan = FaultPlan(seed=0)
        plan.add(SITE_L0_STALL, probability=1.0, stall_ns=1_000)
        lock.stall_hook = plan.lock_stall_hook()
        clock = Clock()
        lock.run_locked(clock, 100)
        assert clock.now == 1_100
        assert lock.stalls_injected_ns == 1_000

    def test_no_hook_unchanged(self):
        lock = SimLock("l0")
        clock = Clock()
        lock.run_locked(clock, 100)
        assert clock.now == 100
        assert lock.stalls_injected_ns == 0

    def test_stall_delays_later_waiters(self):
        lock = SimLock("l0")
        plan = FaultPlan(seed=0)
        plan.add(SITE_L0_STALL, probability=1.0, stall_ns=10_000,
                 max_fires=1)
        lock.stall_hook = plan.lock_stall_hook()
        holder, waiter = Clock(), Clock()
        lock.run_locked(holder, 100)     # stalled: holds until 10_100
        lock.run_locked(waiter, 100)     # queues behind the stall
        assert waiter.now == 10_200


# ---------------------------------------------------------------------------
# Virtio completion errors
# ---------------------------------------------------------------------------


class TestVirtioCompletionErrors:
    def test_fail_used_marks_unreaped_completions(self):
        q = VirtQueue(size=8)
        for _ in range(3):
            q.add_buf(4096, write=False)
        q.kick()
        assert q.fail_used(2) == 2
        assert q.completion_errors == 2
        statuses = [d.status for d in q.reap()]
        assert statuses == [STATUS_ERROR, STATUS_ERROR, STATUS_OK]
        # Descriptors recycle even for errored completions.
        assert q.free_descriptors == 8

    def test_fail_used_with_nothing_pending(self):
        q = VirtQueue(size=8)
        assert q.fail_used() == 0
        assert q.completion_errors == 0

    def test_injected_completion_error_retries(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        plan = FaultPlan(seed=0)
        plan.add(SITE_VIRTIO_COMPLETION, probability=1.0, max_fires=2)
        m.fault_plan = plan
        res = m.blk_write(ctx, proc, 4096)
        assert res.retries == 2
        assert m.io.blk.queue.completion_errors == 2
        # Each retry pays another doorbell.
        assert res.doorbells == 3
        assert m.events.faults_injected.total == 2

    def test_retries_cost_time(self):
        def write_ns(n_errors):
            m = make_machine("pvm (BM)")
            ctx = m.new_context()
            proc = m.spawn_process()
            if n_errors:
                plan = FaultPlan(seed=0)
                plan.add(SITE_VIRTIO_COMPLETION, probability=1.0,
                         max_fires=n_errors)
                m.fault_plan = plan
            m.blk_write(ctx, proc, 4096)
            return ctx.clock.now

        assert write_ns(2) > write_ns(0)

    def test_persistent_errors_fail_request(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        plan = FaultPlan(seed=0)
        plan.add(SITE_VIRTIO_COMPLETION, probability=1.0)
        m.fault_plan = plan
        with pytest.raises(IoCompletionError):
            m.blk_write(ctx, proc, 4096)
        assert m.io.blk.queue.completion_errors == IO_RETRY_LIMIT + 1

    def test_no_plan_zero_retries(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        res = m.blk_write(ctx, proc, 64 * 1024)
        assert res.retries == 0
        assert m.io.blk.queue.completion_errors == 0


# ---------------------------------------------------------------------------
# Migration retry
# ---------------------------------------------------------------------------


class TestMigrationRetry:
    def _guest(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 64 * 1024)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        return m

    def test_no_plan_single_attempt(self):
        report = MigrationManager().migrate_l1([self._guest()])
        assert report.attempts == 1
        assert report.retry_ns == 0

    def test_transient_faults_retry_with_backoff(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_MIGRATION_COPY, probability=1.0, max_fires=2)
        clean = MigrationManager().migrate_l1([self._guest()])
        report = MigrationManager().migrate_l1([self._guest()], plan=plan)
        assert report.attempts == 3
        assert report.retry_ns > 0
        assert report.total_ns == clean.total_ns + report.retry_ns
        # The successful pass itself is unaffected by the retries.
        assert report.precopy_ns == clean.precopy_ns
        assert report.downtime_ns == clean.downtime_ns

    def test_persistent_faults_abort(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_MIGRATION_COPY, probability=1.0)
        with pytest.raises(MigrationLinkError):
            MigrationManager().migrate_l1([self._guest()], plan=plan)

    def test_retry_is_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed)
            plan.add(SITE_MIGRATION_COPY, probability=0.8, max_fires=3)
            return MigrationManager().migrate_l1([self._guest()], plan=plan)

        a, b = run(9), run(9)
        assert (a.attempts, a.retry_ns) == (b.attempts, b.retry_ns)


# ---------------------------------------------------------------------------
# Supervised fleet runs
# ---------------------------------------------------------------------------


class TestSupervisor:
    def test_unsupervised_result_has_no_recovery(self):
        rt = RunDRuntime("pvm (NST)")
        res = rt.run_fleet(2, _busy_workload)
        assert res.recovery is None

    def test_empty_plan_matches_no_plan(self):
        """A plan with zero injectors must not change any timing."""
        base = RunDRuntime("pvm (NST)").run_fleet(4, _busy_workload)
        sup = RunDRuntime("pvm (NST)", fault_plan=FaultPlan(seed=0)).run_fleet(
            4, _busy_workload
        )
        assert sup.makespan_ns == base.makespan_ns
        assert sup.completions_ns == base.completions_ns
        assert sup.recovery is not None
        assert sup.recovery.total_crashes == 0
        assert sup.recovery.availability == 1.0

    def test_crashing_fleet_completes_and_recovers(self):
        plan = FaultPlan(seed=11)
        plan.add(SITE_GUEST_PANIC, probability=0.05)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan)
        res = rt.run_fleet(6, _busy_workload, loops=30)
        r = res.recovery
        assert r.total_crashes > 0
        assert r.restarts > 0
        assert r.crashes.get("guest-panic", 0) > 0
        assert 0.0 < r.availability < 1.0
        assert r.mttr_ns > 0
        # Restart downtime is at least backoff + reboot.
        assert r.mttr_ns >= rt.policy.backoff_base_ns + BOOT_NS
        # Counter plumbing: injections and recoveries visible in events.
        assert res.counters["faults_injected"]["guest.panic"] > 0
        assert res.counters["recoveries"]["restart"] == r.restarts
        # Restarted containers carry their restart count.
        assert all(c.state == "stopped" for c in rt.containers)

    def test_supervised_runs_bit_identical(self):
        def run():
            plan = FaultPlan(seed=21)
            plan.add(SITE_GUEST_PANIC, probability=0.04)
            plan.add(SITE_CONTAINER_BOOT, probability=0.2)
            plan.add(SITE_L0_STALL, probability=0.1)
            rt = RunDRuntime("kvm-ept (NST)", fault_plan=plan)
            res = rt.run_fleet(6, _busy_workload, loops=20)
            return (res.makespan_ns, tuple(res.completions_ns),
                    res.counters, res.recovery.snapshot())

        assert run() == run()

    def test_guest_oom_site_restarts(self):
        plan = FaultPlan(seed=3)
        plan.add(SITE_GUEST_PHYS, probability=0.05)
        res = RunDRuntime("pvm (NST)", fault_plan=plan).run_fleet(
            4, _busy_workload, loops=30
        )
        assert res.recovery.crashes.get("guest-oom", 0) > 0
        assert res.recovery.restarts > 0

    def test_gives_up_after_max_restarts(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_GUEST_PANIC, probability=1.0)
        policy = SupervisorPolicy(max_restarts=2)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan, policy=policy)
        res = rt.run_fleet(3, _busy_workload)
        r = res.recovery
        assert r.gave_up == 3
        # Each member: the initial crash plus max_restarts failed lives.
        assert r.total_crashes == 3 * (policy.max_restarts + 1)
        assert r.restarts == 3 * policy.max_restarts
        assert r.availability < 1.0
        assert res.counters["recoveries"]["gave-up"] == 3

    def test_watchdog_restarts_hung_container(self):
        def hung(machine, ctx, proc):
            # Burns virtual time without finishing for a long while.
            for _ in range(50):
                machine.syscall(ctx, proc, "get_pid")
                ctx.clock.advance(1_000_000)
                yield

        plan = FaultPlan(seed=0)  # no injectors: only the watchdog acts
        policy = SupervisorPolicy(watchdog_ns=5_000_000, max_restarts=1)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan, policy=policy)
        res = rt.run_fleet(2, hung)
        assert res.recovery.crashes.get("watchdog", 0) > 0
        assert res.recovery.gave_up == 2

    def test_nst_restart_reserializes_on_l0(self):
        """A hardware-nested restart redoes L0 setup; PVM's does not."""

        def mttr(scenario):
            plan = FaultPlan(seed=4)
            plan.add(SITE_GUEST_PANIC, probability=1.0, max_fires=1)
            rt = RunDRuntime(scenario, fault_plan=plan)
            res = rt.run_fleet(2, _busy_workload, loops=20)
            assert res.recovery.restarts >= 1
            return res.recovery.mttr_ns

        assert mttr("kvm-ept (NST)") > mttr("pvm (NST)")


class TestBootFaults:
    def test_transient_boot_failures_retry(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_CONTAINER_BOOT, probability=1.0, max_fires=2)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan)
        c = rt.launch()
        assert c.state == "running"
        assert rt.recovery.boot_retries == 2
        # Two failed attempts each charged a boot plus backoff.
        assert c.ctx.clock.now == BOOT_NS + 2 * (
            BOOT_NS + rt.policy.backoff_base_ns
        )

    def test_boot_retry_budget_exhausted(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_CONTAINER_BOOT, probability=1.0)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan)
        with pytest.raises(ContainerBootError):
            rt.launch()
        # ContainerBootError is a RuntimeError_ so existing catchers
        # (bootstorm, fig12) keep working.
        assert issubclass(ContainerBootError, RuntimeError_)

    def test_supervised_fleet_absorbs_boot_failures(self):
        plan = FaultPlan(seed=0)
        plan.add(SITE_CONTAINER_BOOT, probability=1.0)
        rt = RunDRuntime("pvm (NST)", fault_plan=plan)
        res = rt.run_fleet(3, _busy_workload)  # must not raise
        r = res.recovery
        assert r.boot_failures == 3
        assert r.members == 3
        assert r.availability == pytest.approx(0.0)


class TestFleetLeak:
    def test_launch_fleet_failure_stops_partial_fleet(self):
        """A mid-fleet launch failure must not leak running guests."""
        rt = RunDRuntime("kvm-ept (NST)")
        # Fakes occupy all but two capacity slots.
        rt.containers = [
            SecureContainer(f"fake-{i}", None, None, None)
            for i in range(KVM_NST_CAPACITY - 2)
        ]
        with pytest.raises(RuntimeError_):
            rt.launch_fleet(5)
        real = [c for c in rt.containers
                if not c.container_id.startswith("fake-")]
        assert len(real) == 2  # third launch hit the capacity wall
        assert all(c.state == "stopped" for c in real)
        assert rt.running_count == KVM_NST_CAPACITY - 2  # fakes untouched

    def test_run_fleet_stops_containers_when_engine_raises(self):
        def stuck(machine, ctx, proc):
            while True:
                machine.syscall(ctx, proc, "get_pid")
                yield

        rt = RunDRuntime("pvm (NST)")
        with pytest.raises(StuckTaskError):
            rt.run_fleet(2, stuck, max_steps=50)
        assert rt.running_count == 0


# ---------------------------------------------------------------------------
# Chaos experiment determinism gate
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestChaosExperiment:
    def test_same_seed_bit_identical(self):
        a = experiments.chaos(scale=0.3)
        b = experiments.chaos(scale=0.3)
        assert a.as_dict() == b.as_dict()

    def test_explicit_seed_diverges_and_is_deterministic(self):
        a = experiments.chaos(scale=0.3, seed=77)
        b = experiments.chaos(scale=0.3, seed=77)
        c = experiments.chaos(scale=0.3, seed=78)
        assert a.as_dict() == b.as_dict()
        assert a.as_dict() != c.as_dict()

    def test_row_shape(self):
        res = experiments.chaos(scale=0.3)
        data = res.as_dict()
        assert set(data) == set(experiments.chaos.keys)
        for row in data.values():
            assert 0.0 <= row["availability"] <= 1.0
