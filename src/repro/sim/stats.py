"""Latency/throughput aggregation for benchmark reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


@dataclass
class LatencyStats:
    """Accumulates latency samples (ns) and summarizes them."""

    name: str = ""
    samples: List[int] = field(default_factory=list)

    def add(self, ns: int) -> None:
        """Record one sample/entry."""
        if ns < 0:
            raise ValueError(f"negative latency sample: {ns}")
        self.samples.append(ns)

    def extend(self, values: Iterable[int]) -> None:
        """Record many samples."""
        for v in values:
            self.add(v)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def total(self) -> int:
        """Sum of recorded samples."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> int:
        """Smallest recorded sample."""
        return min(self.samples) if self.samples else 0

    @property
    def maximum(self) -> int:
        """Largest recorded sample."""
        return max(self.samples) if self.samples else 0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (p / 100) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return float(ordered[lo])
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    @property
    def p50(self) -> float:
        """50th percentile (median)."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        if self.count < 2:
            return 0.0
        mu = self.mean
        var = sum((s - mu) ** 2 for s in self.samples) / (self.count - 1)
        return math.sqrt(var)

    def summary(self) -> Dict[str, float]:
        """Dict summary of the distribution."""
        return {
            "count": self.count,
            "mean_ns": self.mean,
            "p50_ns": self.p50,
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "min_ns": float(self.minimum),
            "max_ns": float(self.maximum),
        }


def summarize(samples: Sequence[int], name: str = "") -> Dict[str, float]:
    """One-shot: build stats from samples and summarize."""
    stats = LatencyStats(name=name)
    stats.extend(samples)
    return stats.summary()


def ns_to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / 1_000.0


def ns_to_s(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / 1_000_000_000.0


def speedup(baseline: float, measured: float) -> float:
    """How many times faster ``measured`` is than ``baseline``."""
    if measured <= 0:
        raise ValueError("measured time must be positive")
    return baseline / measured


# ---------------------------------------------------------------------------
# Failure-recovery accounting (the supervisor's scoreboard)
# ---------------------------------------------------------------------------


@dataclass
class RecoveryStats:
    """Failure/recovery accounting for one supervised fleet run.

    The :class:`~repro.containers.runtime.RunDRuntime` supervisor feeds
    this while it detects crashes and restarts containers; at the end
    of the run :meth:`finalize` fixes the observation span so
    availability and MTTR become well-defined.  All inputs are virtual
    time, so two runs with the same fault seed produce bit-identical
    snapshots.
    """

    #: Crash counts by reason ("guest-panic", "watchdog", "guest-oom", ...).
    crashes: Dict[str, int] = field(default_factory=dict)
    #: Successful restarts (each contributes one MTTR sample).
    restarts: int = 0
    #: Transient boot failures that were retried successfully.
    boot_retries: int = 0
    #: Containers that never booted (retry budget exhausted).
    boot_failures: int = 0
    #: Containers abandoned after exhausting their restart budget.
    gave_up: int = 0
    #: Crash-to-recovered durations (restart backoff + re-boot).
    mttr: LatencyStats = field(default_factory=lambda: LatencyStats("mttr"))
    #: Accumulated container-down time across the fleet.
    total_downtime_ns: int = 0
    #: Observation span (the fleet makespan), set by :meth:`finalize`.
    span_ns: int = 0
    #: Fleet size, set by :meth:`finalize`.
    members: int = 0

    def record_crash(self, reason: str) -> None:
        """Count one detected container crash by reason."""
        self.crashes[reason] = self.crashes.get(reason, 0) + 1

    def record_restart(self, downtime_ns: int) -> None:
        """Count one successful restart and its outage duration."""
        self.restarts += 1
        self.mttr.add(downtime_ns)
        self.total_downtime_ns += downtime_ns

    def finalize(self, span_ns: int, members: int) -> None:
        """Fix the observation window once the fleet run completes."""
        self.span_ns = span_ns
        self.members = members

    @property
    def total_crashes(self) -> int:
        """Crashes across all reasons."""
        return sum(self.crashes.values())

    @property
    def mttr_ns(self) -> float:
        """Mean time to recovery across successful restarts."""
        return self.mttr.mean

    @property
    def availability(self) -> float:
        """Fraction of fleet member-time the containers were up.

        ``1 - downtime / (members * span)``; containers that never
        booted or were abandoned contribute their full remaining window
        as downtime (added by the supervisor before :meth:`finalize`).

        Degenerate windows: with no observed span, availability is 0.0
        when anything failed permanently (a fleet where every boot
        failed never ran at all) and 1.0 otherwise.
        """
        denom = self.members * self.span_ns
        if denom <= 0:
            return 0.0 if (self.boot_failures or self.gave_up) else 1.0
        return max(0.0, 1.0 - self.total_downtime_ns / denom)

    def snapshot(self) -> Dict[str, float]:
        """A flat, sorted-key dict for bit-identity comparisons."""
        out: Dict[str, float] = {
            "availability": self.availability,
            "boot_failures": float(self.boot_failures),
            "boot_retries": float(self.boot_retries),
            "gave_up": float(self.gave_up),
            "members": float(self.members),
            "mttr_ns": self.mttr_ns,
            "restarts": float(self.restarts),
            "span_ns": float(self.span_ns),
            "total_downtime_ns": float(self.total_downtime_ns),
        }
        for reason in sorted(self.crashes):
            out[f"crashes:{reason}"] = float(self.crashes[reason])
        return out


# ---------------------------------------------------------------------------
# Host memory-pressure accounting (the reclaim daemon's scoreboard)
# ---------------------------------------------------------------------------


@dataclass
class PressureStats:
    """Memory-QoS accounting for one supervised fleet run.

    Fed by the :class:`~repro.memory.qos.ReclaimDaemon` and the
    runtime's admission controller; all inputs are virtual time or
    deterministic counters, so two runs with the same fault seed
    produce bit-identical snapshots.
    """

    #: Working-set-estimation scan rounds completed.
    wse_scans: int = 0
    #: PTE leaf entries examined (and A-bit-cleared) across all scans.
    wse_entries_scanned: int = 0
    #: Pages observed accessed since the previous scan, summed per scan.
    wse_pages_accessed: int = 0
    #: Reclaim rounds in which at least one balloon was inflated.
    reclaim_rounds: int = 0
    #: Host frames released back to the host via balloon inflation.
    frames_reclaimed: int = 0
    #: Frames handed back to guests on deflate-on-relief.
    frames_returned: int = 0
    #: Launches deferred (parked) by admission control.
    admissions_deferred: int = 0
    #: Launches ultimately admitted after waiting in the queue.
    admissions_admitted: int = 0
    #: Guests evicted under sustained min-watermark pressure.
    evictions: int = 0
    #: Injected pressure-spike episodes (``memory.pressure-spike``).
    pressure_spikes: int = 0
    #: Lowest host free-frame count observed at a daemon scan.
    min_free_frames: int = -1

    def note_free_frames(self, free: int) -> None:
        """Track the low-water observation of host free frames."""
        if self.min_free_frames < 0 or free < self.min_free_frames:
            self.min_free_frames = free

    @property
    def reclaimed_bytes(self) -> int:
        """Host bytes released via reclaim (4 KiB frames)."""
        return self.frames_reclaimed << 12

    def snapshot(self) -> Dict[str, float]:
        """A flat, sorted-key dict for bit-identity comparisons."""
        return {
            "admissions_admitted": float(self.admissions_admitted),
            "admissions_deferred": float(self.admissions_deferred),
            "evictions": float(self.evictions),
            "frames_reclaimed": float(self.frames_reclaimed),
            "frames_returned": float(self.frames_returned),
            "min_free_frames": float(self.min_free_frames),
            "pressure_spikes": float(self.pressure_spikes),
            "reclaim_rounds": float(self.reclaim_rounds),
            "wse_entries_scanned": float(self.wse_entries_scanned),
            "wse_pages_accessed": float(self.wse_pages_accessed),
            "wse_scans": float(self.wse_scans),
        }


# ---------------------------------------------------------------------------
# Per-phase machine statistics (benchmark phases must not leak counts)
# ---------------------------------------------------------------------------


def reset_phase_stats(machine) -> None:
    """Zero every per-machine counter a benchmark phase reports.

    Covers the event log and each vCPU's TLB stats, so hit rates
    measured after a warm-up phase reflect only the measured phase.
    """
    machine.events.reset()
    for ctx in machine.contexts:
        ctx.tlb.stats.reset()


def translation_stats(machine) -> Dict[str, float]:
    """Aggregate TLB hit-rate summary across a machine's vCPUs."""
    tlb_hits = tlb_misses = 0
    for ctx in machine.contexts:
        tlb_hits += ctx.tlb.stats.hits
        tlb_misses += ctx.tlb.stats.misses
    tlb_lookups = tlb_hits + tlb_misses
    return {
        "tlb_lookups": float(tlb_lookups),
        "tlb_hit_rate": tlb_hits / tlb_lookups if tlb_lookups else 0.0,
    }


def sanitizer_stats(machine) -> Dict[str, float]:
    """Runtime-sanitizer summary for one machine (zeros when off).

    Flattens the :class:`repro.sanitize.SanitizeReport` snapshot:
    total checks executed, per-checker check counts, and the violation
    count (which is non-zero only if violations were collected with
    ``raise_on_violation=False`` — by default the first violation
    raises out of the run instead).
    """
    suite = getattr(machine, "sanitizers", None)
    if suite is None:
        return {"sanitize_checks": 0.0, "sanitize_violations": 0.0}
    return {k: float(v) for k, v in suite.snapshot().items()}
