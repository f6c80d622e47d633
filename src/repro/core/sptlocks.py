"""Fine-grained shadow-page-table locking (paper §3.3.2).

The classic shadow MMU serializes all SPT updates on a global
``mmu_lock``.  PVM instead:

1. moves work that needs no lock (walking, target computation) out of
   the critical section, and
2. splits the remaining state into three lock classes —
   a **meta lock** for inter-shadow-page structure (collections,
   parent/child links), a per-shadow-page **pt_lock** for the page's
   own entries, and a per-guest-frame **rmap_lock** for the reverse
   mappings (gfn -> SPTE).

``locked_fix`` expresses one shadow update under either regime, so the
Figure 10 ablation is a single flag flip.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.costs import CostModel
from repro.hw.events import EventLog
from repro.sim.clock import Clock
from repro.sim.locks import LockSet, SimLock


class SptLockManager:
    """Concurrency control for one PVM hypervisor's shadow tables."""

    def __init__(
        self,
        costs: CostModel,
        events: Optional[EventLog] = None,
        fine_grained: bool = True,
    ) -> None:
        self.costs = costs
        self.events = events
        self.fine_grained = fine_grained
        self.mmu_lock = SimLock("pvm-mmu_lock", events)
        self.meta_lock = SimLock("pvm-meta_lock", events)
        self.pt_locks = LockSet("pvm-pt_lock", events)
        self.rmap_locks = LockSet("pvm-rmap_lock", events)
        # The sets' member dicts (never rebound; ``reset`` clears them in
        # place), read directly so a fix on an existing lock makes no
        # ``LockSet.get`` call.
        self._pt_members = self.pt_locks._locks
        self._rmap_members = self.rmap_locks._locks
        #: Optional LockdepSanitizer; see :meth:`install_lockdep`.
        self.lockdep = None

    def install_lockdep(self, lockdep) -> None:
        """Attach a lockdep sanitizer and classify every member lock.

        The legal fine-grained acquisition order (paper §3.3.2) is
        ``meta_lock`` → ``pt_lock`` → ``rmap_lock``; the lockdep ranks
        come from that ordering.  ``mmu_lock`` keeps a singleton class —
        the global regime never nests it with the fine-grained locks.
        """
        self.lockdep = lockdep
        self.meta_lock.lockdep = lockdep
        self.meta_lock.lock_class = "meta"
        self.mmu_lock.lockdep = lockdep
        for lockset, cls in ((self.pt_locks, "pt"), (self.rmap_locks, "rmap")):
            lockset.lockdep = lockdep
            lockset.lock_class = cls
            for member in lockset._locks.values():
                member.lockdep = lockdep
                member.lock_class = cls

    def locked_fix(
        self,
        clock: Clock,
        pt_key: object,
        gfn: int,
        work_ns: int,
        structural: bool = False,
    ) -> None:
        """One shadow-table update of ``work_ns`` of fix-up work.

        Under the fine-grained regime, the bulk of the work runs outside
        any lock; only short critical sections touch the meta lock (and
        only for *structural* changes — new shadow pages), the page's
        pt_lock, and the frame's rmap_lock.  Under the global regime the
        whole fix holds ``mmu_lock``.

        ``pt_key`` identifies the shadow page (callers use the leaf
        table's frame or ``vpn >> 9``); ``gfn`` keys the reverse map.
        """
        if work_ns < 0:
            raise ValueError("work_ns must be non-negative")
        # Lockdep scopes the fix as one *operation*: the timeline lock
        # model makes each acquire+release atomic, so ordering is
        # checked across the acquisitions of one logical fix rather
        # than a held-lock stack.
        ld = self.lockdep
        if ld is not None:
            ld.begin_op(("locked_fix", pt_key, gfn))
        try:
            if not self.fine_grained:
                self.mmu_lock.run_locked(
                    clock,
                    hold_ns=self.costs.mmu_lock_hold + work_ns,
                    overhead_ns=self.costs.mmu_lock_op,
                )
                return
            # Lock-free portion first (walk + target computation); the
            # cost was validated above.
            clock.now += work_ns
            hold = self.costs.finegrained_lock_hold
            op = self.costs.finegrained_lock_op
            if structural:
                self.meta_lock.run_locked(clock, hold_ns=hold, overhead_ns=op)
            lock = self._pt_members.get(pt_key)
            if lock is None:
                lock = self.pt_locks.get(pt_key)
            lock.run_locked(clock, hold_ns=hold, overhead_ns=op)
            lock = self._rmap_members.get(gfn)
            if lock is None:
                lock = self.rmap_locks.get(gfn)
            lock.run_locked(clock, hold_ns=hold, overhead_ns=op)
        finally:
            if ld is not None:
                ld.end_op()

    # -- accounting ----------------------------------------------------------

    @property
    def total_wait_ns(self) -> int:
        """Accumulated lock wait across all members."""
        return (
            self.mmu_lock.total_wait_ns
            + self.meta_lock.total_wait_ns
            + self.pt_locks.total_wait_ns
            + self.rmap_locks.total_wait_ns
        )

    @property
    def acquisitions(self) -> int:
        """Total lock acquisitions across all members."""
        return (
            self.mmu_lock.acquisitions
            + self.meta_lock.acquisitions
            + self.pt_locks.acquisitions
            + self.rmap_locks.acquisitions
        )

    def reset(self) -> None:
        """Reset all counters/state."""
        self.mmu_lock.reset()
        self.meta_lock.reset()
        self.pt_locks.reset()
        self.rmap_locks.reset()
