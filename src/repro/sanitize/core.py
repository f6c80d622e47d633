"""Violation reporting shared by every runtime sanitizer.

Each checker (shadow coherence, lockdep, VMX state machine) funnels its
findings through one :class:`SanitizeReport` per machine.  The report
counts every check performed (so a clean run can prove the sanitizer
actually looked), records each :class:`Violation` into the machine's
:class:`~repro.hw.events.EventLog`, and — in the default fail-fast mode
— raises a :class:`SanitizerError` at the first violation, carrying the
full diagnostic payload.

Sanitizer checks charge **no virtual time** and mutate **no simulated
state**: a sanitized run and a plain run produce bit-identical clocks,
counters, and experiment outputs (modulo the sanitizer's own counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hw.events import EventLog


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation.

    ``checker`` names the sanitizer ("shadow", "lockdep", "vmx");
    ``kind`` is the specific invariant (e.g. ``stale-after-pcid-flush``,
    ``lock-order-inversion``, ``vmcs02-double-entry``).  The translation
    fields (``vpid``/``pcid``/``vpn``/``expected``/``actual``) are only
    set for shadow-coherence findings; ``witness`` carries lockdep
    stacks or VMX transition history; ``events_tail`` is the last few
    EventLog records (or counter summaries when detailed tracing is
    off) at the moment of detection.
    """

    checker: str
    kind: str
    detail: str
    vpid: Optional[int] = None
    pcid: Optional[int] = None
    vpn: Optional[int] = None
    expected: Optional[object] = None
    actual: Optional[object] = None
    witness: Tuple[str, ...] = ()
    events_tail: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line human-readable rendering of the violation."""
        lines = [f"[{self.checker}] {self.kind}: {self.detail}"]
        if self.vpn is not None:
            lines.append(
                f"  at vpid={self.vpid} pcid={self.pcid} vpn={self.vpn:#x}"
            )
        if self.expected is not None or self.actual is not None:
            lines.append(f"  expected: {self.expected!r}")
            lines.append(f"  actual:   {self.actual!r}")
        if self.witness:
            lines.append("  witness:")
            lines.extend(f"    {w}" for w in self.witness)
        if self.events_tail:
            lines.append("  recent events:")
            lines.extend(f"    {e}" for e in self.events_tail)
        return "\n".join(lines)


class SanitizerError(AssertionError):
    """A runtime sanitizer detected an invariant violation.

    Subclasses :class:`AssertionError`: a violation means the simulator
    broke its own coherence contract, not that a workload misbehaved.
    The offending :class:`Violation` is available as ``.violation``.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.describe())
        self.violation = violation


#: EventLog records included in a violation's ``events_tail``.
EVENTS_TAIL_LEN = 8


def events_tail(events: Optional[EventLog], n: int = EVENTS_TAIL_LEN) -> Tuple[str, ...]:
    """The last ``n`` relevant EventLog records as display strings.

    With detailed tracing on, the actual trace tail; otherwise a compact
    summary of the flush/fault/switch counters (the best reconstruction
    counters allow).
    """
    if events is None:
        return ()
    if events.detailed and events.trace:
        return tuple(
            f"t={ev.time_ns}ns vcpu={ev.vcpu} {ev.kind}:{ev.detail}"
            for ev in events.trace[-n:]
        )
    summary = []
    for counter in (events.tlb_flushes, events.page_faults,
                    events.world_switches, events.recoveries):
        if counter.total:
            keys = ", ".join(
                f"{k}={v}" for k, v in sorted(counter.items())
            )
            summary.append(f"{counter.name}: total={counter.total} ({keys})")
    return tuple(summary[-n:])


@dataclass
class SanitizeReport:
    """Aggregates checks and violations for one machine's sanitizers.

    ``raise_on_violation=True`` (the default) makes every violation
    fail fast as a :class:`SanitizerError`; the selftest drills flip it
    off per-call never — they catch the raised error instead, so even
    drills exercise the production reporting path.
    """

    events: Optional[EventLog] = None
    mode: str = "sampled"
    raise_on_violation: bool = True
    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    def check(self, checker: str, n: int = 1) -> None:
        """Count ``n`` invariant checks performed by ``checker``."""
        self.checks[checker] = self.checks.get(checker, 0) + n

    def violation(self, v: Violation) -> None:
        """Record one violation; raises unless fail-fast is disabled."""
        if not v.events_tail:
            v = Violation(
                checker=v.checker, kind=v.kind, detail=v.detail,
                vpid=v.vpid, pcid=v.pcid, vpn=v.vpn,
                expected=v.expected, actual=v.actual, witness=v.witness,
                events_tail=events_tail(self.events),
            )
        self.violations.append(v)
        if self.events is not None:
            self.events.sanitizer_violations[f"{v.checker}:{v.kind}"] += 1
        if self.raise_on_violation:
            raise SanitizerError(v)

    @property
    def total_checks(self) -> int:
        """Checks performed across all checkers."""
        return sum(self.checks.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat sorted-key dict for stats aggregation."""
        out: Dict[str, float] = {
            "sanitize_checks": float(self.total_checks),
            "sanitize_violations": float(len(self.violations)),
        }
        for checker in sorted(self.checks):
            out[f"sanitize_checks:{checker}"] = float(self.checks[checker])
        return out
