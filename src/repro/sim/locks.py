"""Contended locks over virtual time.

The paper's Figure 10 is, at heart, a lock-contention experiment: the
classic shadow-paging ``mmu_lock`` serializes every page-fault fix,
while PVM's meta/pt/rmap split lets fixes proceed in parallel.  A
:class:`SimLock` models a lock as a *timeline*: the time at which it
next becomes free.  A vCPU acquiring at virtual time ``t`` is granted
the lock at ``max(t, free_at)`` — the difference is its wait time — and
holding it for ``d`` pushes ``free_at`` to ``grant + d``.

This timeline model is exact for FIFO mutual exclusion when callers are
stepped in earliest-clock-first order, which the engine guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hw.events import EventLog
from repro.sim.clock import Clock


class SimLock:
    """A mutex whose contention is tracked in virtual time."""

    __slots__ = (
        "name", "events", "free_at", "acquisitions", "total_wait_ns",
        "total_hold_ns", "stall_hook", "stalls_injected_ns", "lockdep",
        "lock_class",
    )

    def __init__(self, name: str, events: Optional[EventLog] = None) -> None:
        self.name = name
        self.events = events
        self.free_at = 0
        self.acquisitions = 0
        self.total_wait_ns = 0
        self.total_hold_ns = 0
        #: Optional fault hook ``(request_time_ns) -> extra_hold_ns``:
        #: a holder stall injected by a fault plan extends this
        #: acquisition's hold, so every later waiter queues behind it.
        self.stall_hook = None
        self.stalls_injected_ns = 0
        #: Optional :class:`repro.sanitize.lockdep.LockdepSanitizer`;
        #: when set, every acquisition is reported to it.  Checks charge
        #: no virtual time, so results are identical with or without.
        self.lockdep = None
        #: Lockdep ordering class ("meta", "pt", "rmap", ...).  ``None``
        #: means the lock gets its own singleton class (its name).
        self.lock_class: Optional[str] = None

    def run_locked(self, clock: Clock, hold_ns: int, overhead_ns: int = 0) -> int:
        """Execute a critical section of ``hold_ns`` under this lock.

        ``overhead_ns`` is the uncontended acquire/release cost.  The
        caller's clock is advanced past any wait, the hold, and the
        overhead.  Returns the wait time experienced.

        Note that ``hold_ns=0`` is a real acquisition, not a no-op: the
        lock is still taken and released, so ``overhead_ns`` is still
        charged and ``free_at`` still advances past it.  (An empty
        critical section on real hardware still pays the atomic
        acquire/release.)
        """
        if hold_ns < 0 or overhead_ns < 0:
            raise ValueError("durations must be non-negative")
        if self.lockdep is not None:
            self.lockdep.note_acquire(self)
        if self.stall_hook is not None:
            extra = self.stall_hook(clock.now)
            if extra:
                if extra < 0:
                    raise ValueError("stall hook returned a negative hold")
                hold_ns += extra
                self.stalls_injected_ns += extra
        # Every duration is non-negative, so ``end`` is never before the
        # caller's clock and can be assigned to it.
        request = clock.now
        free_at = self.free_at
        if free_at > request:
            wait = free_at - request
            end = free_at + overhead_ns + hold_ns
            self.total_wait_ns += wait
            # Only a real wait is counted: zero waits never add a key.
            if self.events is not None:
                self.events.lock_wait_ns[self.name] += wait
        else:
            wait = 0
            end = request + overhead_ns + hold_ns
        self.free_at = end
        clock.now = end
        self.acquisitions += 1
        self.total_hold_ns += hold_ns
        return wait

    @property
    def mean_wait_ns(self) -> float:
        """Average wait per acquisition."""
        return self.total_wait_ns / self.acquisitions if self.acquisitions else 0.0

    def reset(self) -> None:
        """Reset all counters/state, including any installed stall hook."""
        self.free_at = 0
        self.acquisitions = 0
        self.total_wait_ns = 0
        self.total_hold_ns = 0
        self.stall_hook = None
        self.stalls_injected_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimLock {self.name} free_at={self.free_at}>"


@dataclass
class LockSet:
    """A named family of locks created on demand (per-page locks, etc.)."""

    prefix: str
    events: Optional[EventLog] = None
    #: Lockdep sanitizer + ordering class propagated to every member
    #: lock created by :meth:`get` (None = lockdep off).
    lockdep: Optional[object] = None
    lock_class: Optional[str] = None
    _locks: Dict[object, SimLock] = field(default_factory=dict)

    def get(self, key: object) -> SimLock:
        """Fetch by key (creating/None-defaulting as documented by the class)."""
        lock = self._locks.get(key)
        if lock is None:
            lock = SimLock(f"{self.prefix}[{key}]", self.events)
            lock.lockdep = self.lockdep
            lock.lock_class = self.lock_class
            self._locks[key] = lock
        return lock

    def __len__(self) -> int:
        return len(self._locks)

    @property
    def total_wait_ns(self) -> int:
        """Accumulated lock wait across all members."""
        return sum(l.total_wait_ns for l in self._locks.values())

    @property
    def acquisitions(self) -> int:
        """Total lock acquisitions across all members."""
        return sum(l.acquisitions for l in self._locks.values())

    def reset(self) -> None:
        """Reset all counters/state."""
        self._locks.clear()
