"""Event tracing and accounting.

Every architectural event the paper counts — world switches by kind,
exits to L0, page faults by phase, TLB flushes, lock waits — flows
through an :class:`EventLog`.  Counters are always on (they are the
measurements); the detailed per-event trace is opt-in because the
memory benchmarks generate millions of events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


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


_GUEST_INTERNAL = SwitchKind.GUEST_INTERNAL


@dataclass(slots=True)
class Counter:
    """A named monotonic counter with optional per-key breakdown.

    ``total`` is derived: the sum of ``by_key`` plus what was added
    without a key.  So one event is one update of ``by_key``, and the
    world-switch legs count in place, with the dict bound at
    construction: ``counts[key] = counts.get(key, 0) + 1``.  They never
    call :meth:`add` or an :class:`EventLog` recorder; the two ways must
    stay equivalent.  ``by_key`` is never rebound (:meth:`reset` clears
    it), so a bound dict stays live.
    """

    name: str
    by_key: Dict[str, int] = field(default_factory=dict)
    #: Samples added without a key.
    unkeyed: int = 0

    @property
    def total(self) -> int:
        """Every sample recorded, with or without a key."""
        return self.unkeyed + sum(self.by_key.values())

    def add(self, n: int = 1, key: Optional[str] = None) -> None:
        """Record one sample/entry."""
        if key is None:
            self.unkeyed += n
        else:
            self.by_key[key] = self.by_key.get(key, 0) + n

    def get(self, key: str, default: int = 0) -> int:
        """Count recorded under ``key`` (``default`` when never seen)."""
        return self.by_key.get(key, default)

    def reset(self) -> None:
        """Reset all counters/state."""
        self.unkeyed = 0
        self.by_key.clear()


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
        #: Paging-structure-cache probe outcomes ("hit"/"miss" for the
        #: per-level walk caches, "gpa-hit"/"gpa-miss" for the combined
        #: guest-physical translation cache used by nested walks).
        self.psc_probes = Counter("psc_probes")
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

    # -- recording -------------------------------------------------------
    #
    # The recorders are the API for cold callers.  The world-switch legs
    # count in place instead (see :class:`Counter`), and append the same
    # ``TraceEvent`` a recorder would when the log is detailed.

    def switch(self, kind: SwitchKind, time_ns: int = 0, vcpu: int = 0) -> None:
        """Record one world switch (one direction)."""
        key = kind._value_
        counts = (self.guest_transitions if kind is _GUEST_INTERNAL
                  else self.world_switches).by_key
        counts[key] = counts.get(key, 0) + 1
        if self.detailed:
            self.trace.append(TraceEvent(time_ns, vcpu, "switch", key))

    def l0_trap(self, reason: str) -> None:
        """Record one trap into the L0 hypervisor (the paper's "exit to
        L0" unit — one trap corresponds to two switch legs)."""
        counts = self.l0_exits.by_key
        counts[reason] = counts.get(reason, 0) + 1

    def l1_exit(self, reason: str, time_ns: int = 0, vcpu: int = 0) -> None:
        """Record an exit from L2 to the L1 hypervisor (PVM path)."""
        counts = self.l1_exits.by_key
        counts[reason] = counts.get(reason, 0) + 1
        if self.detailed:
            self.trace.append(TraceEvent(time_ns, vcpu, "l1_exit", reason))

    def fault(self, phase: FaultPhase, time_ns: int = 0, vcpu: int = 0) -> None:
        """Record one page fault by phase."""
        key = phase._value_
        counts = self.page_faults.by_key
        counts[key] = counts.get(key, 0) + 1
        if self.detailed:
            self.trace.append(TraceEvent(time_ns, vcpu, "fault", key))

    def hypercall(self, name: str) -> None:
        """Count one hypercall by name."""
        counts = self.hypercalls.by_key
        counts[name] = counts.get(name, 0) + 1

    def inject(self, what: str) -> None:
        """Record one event injection."""
        counts = self.injections.by_key
        counts[what] = counts.get(what, 0) + 1

    def tlb_flush(self, granularity: str) -> None:
        """Record one TLB flush by granularity."""
        counts = self.tlb_flushes.by_key
        counts[granularity] = counts.get(granularity, 0) + 1

    def psc_event(self, kind: str) -> None:
        """Record one paging-structure-cache probe outcome by kind."""
        self.psc_probes.add(1, key=kind)

    def interrupt(self, vector: str) -> None:
        """Record one delivered interrupt."""
        counts = self.interrupts.by_key
        counts[vector] = counts.get(vector, 0) + 1

    def lock_wait(self, lock_name: str, waited_ns: int) -> None:
        """Record lock wait time (ignores zero waits)."""
        if waited_ns > 0:
            self.lock_wait_ns.add(waited_ns, key=lock_name)

    def emulate(self, what: str) -> None:
        """Record one emulation by kind."""
        counts = self.emulations.by_key
        counts[what] = counts.get(what, 0) + 1

    def fault_injected(self, site: str) -> None:
        """Record one fault-plan firing by site."""
        self.faults_injected.add(1, key=site)

    def recovery(self, kind: str) -> None:
        """Record one supervisor recovery action by kind."""
        self.recoveries.add(1, key=kind)

    def refault(self, reason: str) -> None:
        """Record one re-backing of a previously discarded guest frame."""
        self.refaults.add(1, key=reason)

    def pressure_event(self, kind: str, n: int = 1) -> None:
        """Record one (or ``n``) memory-QoS events by kind."""
        self.memory_pressure.add(n, key=kind)

    def sanitizer_violation(self, kind: str) -> None:
        """Record one runtime-sanitizer violation by kind."""
        self.sanitizer_violations.add(1, key=kind)

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A dict snapshot of all counters (deep-copied)."""
        out: Dict[str, Dict[str, int]] = {}
        for counter in self._counters():
            out[counter.name] = {"total": counter.total, **counter.by_key}
        return out

    def reset(self) -> None:
        """Reset all counters/state."""
        for counter in self._counters():
            counter.reset()
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
            self.psc_probes,
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
