"""Earliest-clock-first discrete-event engine.

Each :class:`SimTask` owns a clock and a ``stepper`` callable that
performs one unit of work (one workload operation) and returns True
while more work remains.  The engine always steps the runnable task
with the smallest clock, which makes cross-task causality (lock grants,
serialized L0 service) consistent: no task can observe a lock timeline
that a logically-earlier task has not yet written.

Blocked tasks (e.g. a vCPU in HLT waiting for a virtual interrupt) can
be parked via :meth:`Engine.park`: a parked task is withheld from
scheduling — even when its clock is the earliest — until virtual time
reaches its wake time, at which point its clock is advanced to the wake
time and it becomes runnable again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import Clock


class StuckTaskError(RuntimeError):
    """The engine's step budget was exhausted by a runaway task.

    Subclasses :class:`RuntimeError` for backward compatibility, but
    carries enough structure (task name, steps taken, virtual clock at
    abort) for supervisor code to distinguish "stuck workload" from a
    real runtime error and act on the offender.
    """

    def __init__(self, task_name: str, steps: int, now_ns: int,
                 max_steps: int) -> None:
        super().__init__(
            f"engine exceeded {max_steps} steps; task {task_name!r} is "
            f"likely stuck (task steps={steps}, virtual time={now_ns} ns)"
        )
        self.task_name = task_name
        self.steps = steps
        self.now_ns = now_ns
        self.max_steps = max_steps


@dataclass(slots=True)
class SimTask:
    """One schedulable execution context (typically one vCPU's workload)."""

    name: str
    clock: Clock
    #: Performs one operation, advancing ``clock``; returns True while
    #: more operations remain.
    stepper: Callable[[], bool]
    done: bool = False
    steps: int = 0
    finished_at: Optional[int] = None
    #: Absolute virtual wake time while parked; None when runnable.
    parked_until: Optional[int] = None


class Engine:
    """Interleaves tasks in earliest-virtual-time order."""

    def __init__(self, max_steps: int = 100_000_000) -> None:
        self.max_steps = max_steps
        self.tasks: List[SimTask] = []
        self._wakeups: List[Tuple[int, int, SimTask]] = []
        self._seq = itertools.count()
        #: LockdepSanitizers to notify on :meth:`park` (a task parking
        #: with an operation's locks still marked held is a deadlock
        #: hazard).  Empty unless sanitizers are attached.
        self.lockdeps: List[object] = []

    def add(self, task: SimTask) -> SimTask:
        """Register a task with the engine and return it."""
        self.tasks.append(task)
        return task

    def add_fn(self, name: str, stepper: Callable[[], bool], start: int = 0) -> SimTask:
        """Create and register a task from a stepper callable."""
        return self.add(SimTask(name=name, clock=Clock(start), stepper=stepper))

    def park(self, task: SimTask, wake_at: int) -> None:
        """Park ``task`` until virtual time ``wake_at`` (used for HLT).

        The task is withheld from scheduling until the engine reaches
        ``wake_at``; on wakeup its clock is advanced to the wake time.
        Parking an already-parked task moves its wake time (the stale
        wakeup entry is ignored when popped).
        """
        for ld in self.lockdeps:
            ld.note_park(task.name)
        task.parked_until = wake_at
        heapq.heappush(self._wakeups, (wake_at, next(self._seq), task))

    def _run_single(self, task: SimTask) -> None:
        """No-heap fast path: with a single runnable task there is
        nothing to interleave, so step it straight to completion."""
        total_steps = 0
        stepper = task.stepper
        while True:
            more = stepper()
            task.steps += 1
            total_steps += 1
            if total_steps > self.max_steps:
                raise StuckTaskError(task.name, task.steps,
                                     task.clock.now, self.max_steps)
            if task.parked_until is not None:
                # Self-park with no other runnable task: virtual time
                # jumps straight to the wake time.
                task.clock.advance_to(task.parked_until)
                task.parked_until = None
                self._wakeups.clear()
            if not more:
                break
        task.done = True
        task.finished_at = task.clock.now

    def run(self) -> int:
        """Run all tasks to completion; returns the makespan in ns.

        Raises :class:`StuckTaskError` if the global step budget is
        exhausted, which indicates a stuck workload rather than a long
        one.
        """
        runnable = [t for t in self.tasks if not t.done and t.parked_until is None]
        if len(runnable) == 1 and not self._wakeups:
            self._run_single(runnable[0])
            return self.makespan()
        heap: List[Tuple[int, int, SimTask]] = []
        for task in runnable:
            heapq.heappush(heap, (task.clock.now, next(self._seq), task))
        total_steps = 0
        while heap or self._wakeups:
            if self._wakeups and (not heap or self._wakeups[0][0] <= heap[0][0]):
                wake_at, seq, task = heapq.heappop(self._wakeups)
                if task.done or task.parked_until != wake_at:
                    continue  # stale entry: finished, re-parked, or woken
                task.clock.advance_to(wake_at)
                task.parked_until = None
                heapq.heappush(heap, (task.clock.now, seq, task))
                continue
            _, _, task = heapq.heappop(heap)
            more = task.stepper()
            task.steps += 1
            total_steps += 1
            if total_steps > self.max_steps:
                raise StuckTaskError(task.name, task.steps,
                                     task.clock.now, self.max_steps)
            if more:
                if task.parked_until is None:
                    heapq.heappush(heap, (task.clock.now, next(self._seq), task))
            else:
                task.done = True
                task.finished_at = task.clock.now
        return self.makespan()

    def makespan(self) -> int:
        """Finish time of the slowest task (0 if none ran)."""
        times = [t.finished_at if t.finished_at is not None else t.clock.now
                 for t in self.tasks]
        return max(times) if times else 0


def run_ops(clock: Clock, ops: "list | tuple", execute: Callable[[object], None]) -> SimTask:
    """Convenience: build a stepper over a finite operation list."""
    it = iter(ops)

    def stepper() -> bool:
        """Perform one unit of work; True while more remains."""
        try:
            op = next(it)
        except StopIteration:
            return False
        execute(op)
        return True

    return SimTask(name="ops", clock=clock, stepper=stepper)
