"""Lock-ordering sanitizer for the virtual-time locks.

:class:`~repro.sim.locks.SimLock` models acquire+release as one atomic
timeline operation, so a classic held-stack lockdep would never see two
locks held at once.  Ordering is instead checked per *operation*: code
that logically holds several locks across one unit of work (e.g.
``SptLockManager.locked_fix``) brackets it with :meth:`begin_op` /
:meth:`end_op`, and every acquisition inside the bracket joins that
operation's sequence.  Two invariant families:

* **Rank order** — within one operation, the fine-grained shadow locks
  must be taken in the paper's legal order ``meta`` → ``pt`` → ``rmap``
  (§3.3.2).  An acquisition whose class ranks at or below an
  already-taken class is an inversion.
* **Cross-operation cycles** — the first time class B follows class A
  inside any operation, the edge A→B is recorded with a witness stack;
  a later operation taking B before A closes a cycle (the ABBA
  pattern), reported with both witness stacks.

Additionally, :meth:`note_park` flags a task parking on the engine
while an operation is still open with locks taken — holding a lock
across a blocking wait is the classic deadlock recipe.

Acquisitions outside any operation are singletons (release is implied
immediately) and only feed the graph as one-node sequences, which can
never create edges — matching the timeline-lock semantics.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Tuple

from repro.sanitize.core import SanitizeReport, Violation

#: Legal fine-grained acquisition order, lowest rank first.
CLASS_ORDER: Tuple[str, ...] = ("meta", "pt", "rmap")
_RANK: Dict[str, int] = {cls: i for i, cls in enumerate(CLASS_ORDER)}

#: Stack frames captured for a witness (enough to find the call site).
WITNESS_DEPTH = 8


def _witness() -> str:
    frames = traceback.format_stack(limit=WITNESS_DEPTH)[:-2]
    return "".join(frames).rstrip()


class LockdepSanitizer:
    """Acquisition-order checking across SimLock/LockSet/SptLockManager."""

    def __init__(self, report: SanitizeReport) -> None:
        self.report = report
        #: Stack of open operations; each holds (label, [classes taken]).
        self._ops: List[Tuple[object, List[str]]] = []
        #: Directed class graph: (a, b) -> witness stack of first a→b.
        self._edges: Dict[Tuple[str, str], str] = {}

    # -- operation bracketing ---------------------------------------------

    def begin_op(self, label: object) -> None:
        """Open one logical multi-lock operation (e.g. a locked_fix)."""
        self._ops.append((label, []))

    def end_op(self) -> None:
        """Close the innermost open operation."""
        if self._ops:
            self._ops.pop()

    # -- hooks -------------------------------------------------------------

    def note_acquire(self, lock) -> None:
        """Called by ``SimLock.run_locked`` on every acquisition."""
        self.report.check("lockdep")
        cls = lock.lock_class or lock.name
        if not self._ops:
            return  # singleton acquisition: released before anything else
        label, taken = self._ops[-1]
        self._check_rank(lock, cls, label, taken)
        for prev in taken:
            if prev != cls:
                self._note_edge(prev, cls, label)
        taken.append(cls)

    def note_park(self, task_name: str) -> None:
        """Called by ``Engine.park``; parking mid-operation is illegal."""
        self.report.check("lockdep")
        if self._ops and self._ops[-1][1]:
            label, taken = self._ops[-1]
            self.report.violation(Violation(
                checker="lockdep", kind="lock-held-across-park",
                detail=f"task {task_name!r} parked during operation "
                       f"{label!r} with lock classes {taken} taken",
                witness=(_witness(),),
            ))

    # -- internals ---------------------------------------------------------

    def _check_rank(self, lock, cls: str, label: object,
                    taken: List[str]) -> None:
        rank = _RANK.get(cls)
        if rank is None:
            return  # unranked class: only the cycle graph constrains it
        for prev in taken:
            prev_rank = _RANK.get(prev)
            if prev_rank is not None and prev_rank >= rank:
                self.report.violation(Violation(
                    checker="lockdep", kind="lock-order-inversion",
                    detail=f"{lock.name} (class {cls!r}) acquired after "
                           f"class {prev!r} in operation {label!r}; legal "
                           f"order is {' -> '.join(CLASS_ORDER)}",
                    witness=(_witness(),),
                ))
                return

    def _note_edge(self, a: str, b: str, label: object) -> None:
        if (a, b) in self._edges:
            return
        reverse = self._edges.get((b, a))
        if reverse is not None:
            self.report.violation(Violation(
                checker="lockdep", kind="lock-cycle",
                detail=f"operation {label!r} takes {a!r} before {b!r}, "
                       f"but an earlier operation took {b!r} before "
                       f"{a!r} (ABBA)",
                witness=(f"this order ({a} -> {b}):\n{_witness()}",
                         f"earlier order ({b} -> {a}):\n{reverse}"),
            ))
            return
        self._edges[(a, b)] = _witness()
