"""Unit tests for the simulation engine: clocks, locks, engine, stats."""

import pytest

from repro.hw.events import EventLog
from repro.sim.clock import Clock, wall_time
from repro.sim.engine import Engine, SimTask, run_ops
from repro.sim.locks import LockSet, SimLock
from repro.sim.stats import LatencyStats, ns_to_s, ns_to_us, speedup, summarize


class TestClock:
    def test_advance(self):
        c = Clock()
        assert c.advance(10) == 10
        assert c.now == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)
        with pytest.raises(ValueError):
            Clock(start=-5)

    def test_advance_to(self):
        c = Clock(start=10)
        c.advance_to(5)  # no-op backwards
        assert c.now == 10
        c.advance_to(25)
        assert c.now == 25

    def test_wall_time(self):
        assert wall_time([Clock(3), Clock(9), Clock(1)]) == 9
        assert wall_time([]) == 0


class TestSimLock:
    def test_uncontended(self):
        lock = SimLock("l")
        c = Clock()
        wait = lock.run_locked(c, hold_ns=100, overhead_ns=10)
        assert wait == 0
        assert c.now == 110
        assert lock.free_at == 110

    def test_contention_serializes(self):
        lock = SimLock("l")
        c1, c2 = Clock(), Clock()
        lock.run_locked(c1, hold_ns=100)
        wait = lock.run_locked(c2, hold_ns=100)
        # c2 requested at 0 but the lock frees at 100.
        assert wait == 100
        assert c2.now == 200

    def test_late_requester_no_wait(self):
        lock = SimLock("l")
        lock.run_locked(Clock(), hold_ns=100)
        c = Clock(start=500)
        assert lock.run_locked(c, hold_ns=100) == 0
        assert c.now == 600

    def test_wait_reported_to_events(self):
        events = EventLog()
        lock = SimLock("l", events)
        lock.run_locked(Clock(), hold_ns=100)
        lock.run_locked(Clock(), hold_ns=100)
        assert events.lock_wait_ns["l"] == 100

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            SimLock("l").run_locked(Clock(), hold_ns=-1)

    def test_negative_stall_rejected(self):
        # The caller's clock is set to the section's end, never moved
        # back: a stall hook cannot shorten a hold.
        lock = SimLock("l")
        lock.stall_hook = lambda now: -5
        with pytest.raises(ValueError):
            lock.run_locked(Clock(), hold_ns=10)

    def test_clock_set_to_section_end(self):
        lock = SimLock("l")
        late = Clock(500)
        lock.run_locked(Clock(), hold_ns=100, overhead_ns=10)
        assert lock.run_locked(late, hold_ns=5) == 0
        assert late.now == 505
        early = Clock(200)
        assert lock.run_locked(early, hold_ns=5, overhead_ns=1) == 305
        assert early.now == 511

    def test_stats(self):
        lock = SimLock("l")
        lock.run_locked(Clock(), hold_ns=10)
        lock.run_locked(Clock(), hold_ns=10)
        assert lock.acquisitions == 2
        assert lock.total_hold_ns == 20
        assert lock.mean_wait_ns == 5.0
        lock.reset()
        assert lock.acquisitions == 0


class TestLockSet:
    def test_per_key_independence(self):
        ls = LockSet("pt")
        c1, c2 = Clock(), Clock()
        ls.get("a").run_locked(c1, hold_ns=100)
        ls.get("b").run_locked(c2, hold_ns=100)
        assert c1.now == 100 and c2.now == 100  # no cross-key waits
        assert len(ls) == 2

    def test_same_key_contends(self):
        ls = LockSet("pt")
        c1, c2 = Clock(), Clock()
        ls.get("a").run_locked(c1, hold_ns=100)
        ls.get("a").run_locked(c2, hold_ns=100)
        assert c2.now == 200

    def test_aggregates(self):
        ls = LockSet("pt")
        ls.get(1).run_locked(Clock(), hold_ns=10)
        ls.get(2).run_locked(Clock(), hold_ns=10)
        ls.get(1).run_locked(Clock(), hold_ns=10)
        assert ls.acquisitions == 3
        assert ls.total_wait_ns == 10  # the second key-1 acquire waited


class TestEngine:
    def test_earliest_first_interleaving(self):
        order = []

        def make(name, step_ns, steps):
            clock = Clock()
            remaining = [steps]

            def stepper():
                order.append((name, clock.now))
                clock.advance(step_ns)
                remaining[0] -= 1
                return remaining[0] > 0

            return SimTask(name=name, clock=clock, stepper=stepper)

        engine = Engine()
        engine.add(make("fast", 10, 3))
        engine.add(make("slow", 25, 2))
        makespan = engine.run()
        assert makespan == 50
        # fast@0, slow@0, fast@10, fast@20, slow@25
        assert order == [
            ("fast", 0), ("slow", 0), ("fast", 10), ("fast", 20), ("slow", 25)
        ]

    def test_finished_at_recorded(self):
        engine = Engine()
        t = engine.add_fn("one", lambda: False)
        engine.run()
        assert t.done and t.finished_at == 0

    def test_step_budget(self):
        engine = Engine(max_steps=10)
        clock = Clock()

        def forever():
            clock.advance(1)
            return True

        engine.add(SimTask(name="loop", clock=clock, stepper=forever))
        with pytest.raises(RuntimeError):
            engine.run()

    def test_run_ops_helper(self):
        clock = Clock()
        seen = []
        task = run_ops(clock, [1, 2, 3], seen.append)
        engine = Engine()
        engine.add(task)
        engine.run()
        assert seen == [1, 2, 3]

    def test_makespan_empty(self):
        assert Engine().run() == 0

    def test_simtask_has_slots(self):
        t = SimTask(name="t", clock=Clock(), stepper=lambda: False)
        with pytest.raises(AttributeError):
            t.arbitrary_attribute = 1


class TestEnginePark:
    def _counted(self, engine, name, step_ns, steps, order):
        clock = Clock()
        remaining = [steps]

        def stepper():
            order.append((name, clock.now))
            clock.advance(step_ns)
            remaining[0] -= 1
            return remaining[0] > 0

        return engine.add(SimTask(name=name, clock=clock, stepper=stepper))

    def test_parked_task_defers_until_wake(self):
        """A parked task must not run before its wake time even though
        its clock (0) is the earliest; on wakeup it resumes at wake_at."""
        order = []
        engine = Engine()
        self._counted(engine, "a", 10, 3, order)
        b = self._counted(engine, "b", 5, 1, order)
        engine.park(b, 15)
        engine.run()
        assert order == [("a", 0), ("a", 10), ("b", 15), ("a", 20)]
        assert b.finished_at == 20

    def test_repark_moves_wake_time(self):
        order = []
        engine = Engine()
        self._counted(engine, "a", 10, 3, order)
        b = self._counted(engine, "b", 5, 1, order)
        engine.park(b, 5)
        engine.park(b, 25)  # stale 5ns wakeup must be ignored
        engine.run()
        assert order == [("a", 0), ("a", 10), ("a", 20), ("b", 25)]

    def test_single_task_fast_path_counts_steps(self):
        engine = Engine()
        t = engine.add_fn("solo", iter([True, True, False]).__next__)
        engine.run()
        assert t.done and t.steps == 3

    def test_single_task_fast_path_respects_budget(self):
        engine = Engine(max_steps=10)
        clock = Clock()

        def forever():
            clock.advance(1)
            return True

        engine.add(SimTask(name="loop", clock=clock, stepper=forever))
        with pytest.raises(RuntimeError):
            engine.run()

    def test_single_task_self_park_jumps_clock(self):
        engine = Engine()
        clock = Clock()
        fired = [False]

        def stepper():
            if not fired[0]:
                fired[0] = True
                engine.park(task, 100)  # HLT until the virtual timer
                return True
            return False

        task = engine.add(SimTask(name="hlt", clock=clock, stepper=stepper))
        assert engine.run() == 100
        assert task.finished_at == 100

    def test_parked_before_run_single_runnable_uses_heap(self):
        """One runnable + one parked task must go through the full
        scheduler, not the single-task fast path."""
        order = []
        engine = Engine()
        self._counted(engine, "a", 10, 2, order)
        b = self._counted(engine, "b", 5, 1, order)
        engine.park(b, 3)
        engine.run()
        assert order == [("a", 0), ("b", 3), ("a", 10)]


class TestStats:
    def test_basic_stats(self):
        s = LatencyStats()
        s.extend([10, 20, 30, 40])
        assert s.mean == 25
        assert s.minimum == 10 and s.maximum == 40
        assert s.p50 == 25

    def test_percentile_interpolation(self):
        s = LatencyStats()
        s.extend([0, 100])
        assert s.percentile(50) == 50
        assert s.percentile(0) == 0
        assert s.percentile(100) == 100

    def test_percentile_bounds(self):
        s = LatencyStats()
        s.add(1)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1)

    def test_stddev(self):
        s = LatencyStats()
        s.extend([10, 10, 10])
        assert s.stddev == 0
        s2 = LatencyStats()
        s2.extend([0, 20])
        assert s2.stddev > 0

    def test_empty_stats(self):
        s = LatencyStats()
        assert s.mean == 0.0
        assert s.percentile(50) == 0.0

    def test_summarize_and_units(self):
        summary = summarize([1000, 2000])
        assert summary["mean_ns"] == 1500
        assert ns_to_us(1500) == 1.5
        assert ns_to_s(2e9) == 2.0

    def test_speedup(self):
        assert speedup(100, 50) == 2.0
        with pytest.raises(ValueError):
            speedup(100, 0)
