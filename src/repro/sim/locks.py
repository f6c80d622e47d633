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
        "stall_hook", "stalls_injected_ns", "lockdep", "lock_class",
    )

    def __init__(self, name: str, events: Optional[EventLog] = None,
                 lockdep=None, lock_class: Optional[str] = None) -> None:
        self.name = name
        self.events = events
        self.free_at = 0
        self.acquisitions = 0
        self.total_wait_ns = 0
        #: Optional fault hook ``(request_time_ns) -> extra_hold_ns``:
        #: a holder stall injected by a fault plan extends this
        #: acquisition's hold, so every later waiter queues behind it.
        self.stall_hook = None
        self.stalls_injected_ns = 0
        #: Optional :class:`repro.sanitize.lockdep.LockdepSanitizer`;
        #: when set, every acquisition is reported to it.  Checks charge
        #: no virtual time, so results are identical with or without.
        self.lockdep = lockdep
        #: Lockdep ordering class ("meta", "pt", "rmap", ...).  ``None``
        #: means the lock gets its own singleton class (its name).
        self.lock_class = lock_class

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
        # Every duration is non-negative, so the section's end is never
        # before the caller's clock and can be assigned to it.
        start = clock.now
        if self.free_at > start:
            # Queued behind the holder: the section starts when it frees.
            wait = self.free_at - start
            start = self.free_at
            self.total_wait_ns += wait
            # Only a real wait is counted: zero waits never add a key.
            if self.events is not None:
                self.events.lock_wait_ns[self.name] += wait
        else:
            wait = 0
        clock.now = self.free_at = start + overhead_ns + hold_ns
        self.acquisitions += 1
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
        self.stall_hook = None
        self.stalls_injected_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimLock {self.name} free_at={self.free_at}>"


class _Members(dict):
    """``key -> SimLock`` of one :class:`LockSet`, each lock created on
    first use (named ``prefix[key]``, with the set's lockdep class).

    A :class:`~repro.hw.types.PerKey` would call one more function per
    new lock, and PVM creates one per demand fault and zapped page.
    """

    __slots__ = ("lockset",)

    def __init__(self, lockset: "LockSet") -> None:
        super().__init__()
        self.lockset = lockset

    def __missing__(self, key: object) -> SimLock:
        owner = self.lockset
        lock = self[key] = SimLock(f"{owner.prefix}[{key}]", owner.events,
                                   owner.lockdep, owner.lock_class)
        return lock


@dataclass
class LockSet:
    """A named family of locks created on demand (per-page locks, etc.)."""

    prefix: str
    events: Optional[EventLog] = None
    #: Lockdep sanitizer + ordering class propagated to every member
    #: lock created from now on (None = lockdep off).
    lockdep: Optional[object] = None
    lock_class: Optional[str] = None
    #: key -> member lock; indexing it with a new key creates the lock.
    #: Never rebound (``reset`` clears it), so hot paths index it
    #: directly instead of calling :meth:`get`.
    members: Dict[object, SimLock] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = _Members(self)

    def get(self, key: object) -> SimLock:
        """The member lock for ``key``, created on first use."""
        return self.members[key]

    def __len__(self) -> int:
        return len(self.members)

    @property
    def total_wait_ns(self) -> int:
        """Accumulated lock wait across all members."""
        return sum(l.total_wait_ns for l in self.members.values())

    @property
    def acquisitions(self) -> int:
        """Total lock acquisitions across all members."""
        return sum(l.acquisitions for l in self.members.values())

    def reset(self) -> None:
        """Reset all counters/state."""
        self.members.clear()
