"""Event tracing and accounting.

Every architectural event the paper counts — world switches by kind,
exits to L0, page faults by phase, TLB flushes, lock waits — is counted
in one of an :class:`EventLog`'s counters, in place, by the code where
it happens.  Counters are always on (they are the measurements); the
detailed per-event trace is opt-in because the memory benchmarks
generate millions of events.  Where the log is detailed, the code that
counts a switch, an L1 exit or a fault also appends its
:class:`TraceEvent` to ``trace``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class SwitchKind(enum.Enum):
    """Classification of world switches, matching the paper's taxonomy."""

    #: Hardware VMX transition between L1 (non-root) and L0 (root).
    HW_L1_L0 = "hw:l1<->l0"
    #: Hardware VMX transition between L2 (non-root) and L0 (root) —
    #: only exists in hardware-assisted nesting, where every L2 exit
    #: lands in L0 first.
    HW_L2_L0 = "hw:l2<->l0"
    #: Software switch between L2 and L1 performed by PVM's switcher
    #: (ring transition inside non-root mode; no L0 involvement).
    PVM_L2_L1 = "pvm:l2<->l1"
    #: PVM direct switch between L2 user and L2 kernel inside the
    #: switcher (no hypervisor involvement at all).
    PVM_DIRECT = "pvm:user<->kernel"
    #: Guest-internal user/kernel transition on hardware (syscall/iret
    #: with no virtualization cost).
    GUEST_INTERNAL = "guest:user<->kernel"


class FaultPhase(enum.Enum):
    """The two phases of a nested page fault (paper §2.2)."""

    GUEST_PT = "phase1:guest-pt"  # GPT2 update
    SHADOW_PT = "phase2:shadow-pt"  # SPT12 / EPT12+EPT02 update


class Counter(dict):
    """A named event counter: key -> count.

    Every count is one in-place update, ``counter[key] += n``.  A
    missing key reads as 0 and the read inserts nothing, so an event
    never counted never shows up in a snapshot.  ``total`` is derived.
    Hot paths bind a counter at construction; :meth:`EventLog.reset`
    clears it in place, so a bound counter stays live.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __missing__(self, key: str) -> int:
        return 0

    @property
    def total(self) -> int:
        """Every sample recorded."""
        return sum(self.values())


@dataclass
class TraceEvent:
    """One recorded event (only kept when detailed tracing is enabled)."""

    time_ns: int
    vcpu: int
    kind: str
    detail: str = ""


class EventLog:
    """Central accounting sink shared by one simulated machine."""

    def __init__(self, detailed: bool = False) -> None:
        self.detailed = detailed
        self.trace: List[TraceEvent] = []
        self.world_switches = Counter("world_switches")
        #: Guest-internal user/kernel transitions — not world switches
        #: (no hypervisor boundary is crossed), tracked separately so the
        #: paper's 4n+8 / 2n+6 / 2n+4 counts hold exactly.
        self.guest_transitions = Counter("guest_transitions")
        self.l0_exits = Counter("l0_exits")
        self.l1_exits = Counter("l1_exits")
        self.page_faults = Counter("page_faults")
        self.hypercalls = Counter("hypercalls")
        self.injections = Counter("injections")
        self.tlb_flushes = Counter("tlb_flushes")
        self.interrupts = Counter("interrupts")
        self.lock_wait_ns = Counter("lock_wait_ns")
        self.emulations = Counter("emulations")
        #: Fault-plan firings by site (always zero without a plan).
        self.faults_injected = Counter("faults_injected")
        #: Supervisor recovery actions ("restart", "gave-up", ...).
        self.recoveries = Counter("recoveries")
        #: Backing re-establishment after a discarded (ballooned /
        #: reclaimed) guest frame is touched again, by reason.
        self.refaults = Counter("refaults")
        #: Memory-QoS events by kind ("wse-scan", "reclaim", "deflate",
        #: "eviction", "admission-deferred", "pressure-spike", ...).
        self.memory_pressure = Counter("memory_pressure")
        #: Sanitizer violations by kind (always zero unless a run with
        #: ``MachineConfig(sanitize=True)`` / ``PVM_SANITIZE`` tripped an
        #: invariant — and those runs raise, so a non-zero count in a
        #: surviving snapshot means violations were deliberately
        #: collected, e.g. by the selftest drills).
        self.sanitizer_violations = Counter("sanitizer_violations")

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A dict snapshot of all counters (deep-copied)."""
        out: Dict[str, Dict[str, int]] = {}
        for counter in self._counters():
            out[counter.name] = {"total": counter.total, **counter}
        return out

    def reset(self) -> None:
        """Clear every counter in place (bound counters stay live) and
        the trace."""
        for counter in self._counters():
            counter.clear()
        self.trace.clear()

    def _counters(self) -> Tuple[Counter, ...]:
        return (
            self.world_switches,
            self.guest_transitions,
            self.l0_exits,
            self.l1_exits,
            self.page_faults,
            self.hypercalls,
            self.injections,
            self.tlb_flushes,
            self.interrupts,
            self.lock_wait_ns,
            self.emulations,
            self.faults_injected,
            self.recoveries,
            self.refaults,
            self.memory_pressure,
            self.sanitizer_violations,
        )


def export_chrome_trace(log: "EventLog", path: str) -> int:
    """Write the detailed trace as a Chrome-trace-format JSON file.

    Load the result in ``chrome://tracing`` / Perfetto to see world
    switches, faults, and exits per vCPU on a timeline.  Requires the
    log to have been created with ``detailed=True``.  Returns the number
    of events written.
    """
    import json

    if not log.detailed:
        raise ValueError("detailed tracing is off; create EventLog(detailed=True)")
    events = []
    for ev in log.trace:
        events.append({
            "name": ev.detail or ev.kind,
            "cat": ev.kind,
            "ph": "i",  # instant event
            "ts": ev.time_ns / 1000.0,  # chrome wants microseconds
            "pid": 0,
            "tid": ev.vcpu,
            "s": "t",
        })
    with open(path, "w") as f:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ns"}, f)
    return len(events)


def diff_snapshots(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Counter deltas between two snapshots (used by per-op assertions)."""
    out: Dict[str, Dict[str, int]] = {}
    for name, post in after.items():
        pre = before.get(name, {})
        delta = {k: v - pre.get(k, 0) for k, v in post.items()}
        out[name] = {k: v for k, v in delta.items() if v}
    return out
