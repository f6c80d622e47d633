"""Watermark-driven reclaim, admission control knobs, and eviction.

The :class:`ReclaimDaemon` is an ordinary engine task (earliest-clock
scheduling, :meth:`~repro.sim.engine.Engine.park` between rounds) so
its interleaving with guest workloads is deterministic.  Per round it:

1. releases an expired pressure spike and rolls the fleet's seeded
   fault plan for a new one (site ``memory.pressure-spike``);
2. harvests A-bits from every running guest — PML-style scans whose
   flushes and refaults are charged to the scanned guest's vCPU;
3. compares host free frames against three watermarks:

   * below **low** — balloon guests proportionally to their estimated
     idle memory (capped per guest per round); rounds that reclaim
     nothing double the scan interval up to a cap (backoff);
   * below **min** for ``evict_after_rounds`` consecutive rounds —
     mark the lowest-priority guest for eviction (its fleet member
     crashes it with reason ``"evicted"`` and restarts it through the
     normal recovery path once pressure clears);
   * above **high** — deflate balloons, returning frames to guests.

All balloon/harvest work runs on the target container's own vCPU
context: the balloon driver and the scan IPIs execute *in the guest*,
so their virtual-time cost lands where hardware would put it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults import SITE_MEMORY_PRESSURE, FaultPlan
from repro.hw.types import PAGE_SHIFT
from repro.sim.clock import Clock
from repro.sim.engine import Engine, SimTask
from repro.sim.stats import PressureStats


@dataclass
class MemoryQosConfig:
    """Knobs of the memory-QoS subsystem (all sizes in frames/fractions).

    Watermarks are fractions of total host frames, ordered
    ``min < low < high``.  ``overcommit_ratio`` scales the admission
    limit: the runtime admits containers while the sum of their guest
    memory stays under ``host_frames * overcommit_ratio``; later
    launches queue until running guests retire.
    """

    #: Free fraction above which the daemon deflates balloons.
    high_watermark: float = 0.25
    #: Free fraction below which reclaim rounds start.
    low_watermark: float = 0.12
    #: Free fraction below which (sustained) the daemon evicts.
    min_watermark: float = 0.05
    #: Daemon round period (virtual ns); also the admission retry tick.
    scan_interval_ns: int = 2_000_000
    #: Backoff ceiling for the round period when reclaim runs dry.
    backoff_cap_ns: int = 16_000_000
    #: Admission limit as a multiple of host physical frames.
    overcommit_ratio: float = 1.0
    #: Pages ballooned from one guest in one round, at most.
    reclaim_batch_pages: int = 1024
    #: Consecutive below-min rounds before an eviction fires.
    evict_after_rounds: int = 2
    #: EWMA smoothing for the working-set estimator.
    wse_alpha: float = 0.5
    #: Pressure-spike shape: burst size as a fraction of host frames,
    #: drawn uniformly from [lo, hi) on the plan's deterministic
    #: "shape" stream; held for ``spike_hold_ns`` then released.
    spike_frac_lo: float = 0.10
    spike_frac_hi: float = 0.25
    spike_hold_ns: int = 8_000_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_watermark < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 <= min < low < high <= 1, got "
                f"min={self.min_watermark} low={self.low_watermark} "
                f"high={self.high_watermark}"
            )
        if self.overcommit_ratio <= 0:
            raise ValueError("overcommit_ratio must be positive")


class ReclaimDaemon:
    """The memory-QoS reclaim task for one supervised fleet run."""

    def __init__(
        self,
        runtime,
        config: MemoryQosConfig,
        stats: PressureStats,
        watched: List[SimTask],
        plan: Optional[FaultPlan] = None,
    ) -> None:
        from repro.memory.wse import WorkingSetEstimator

        self.runtime = runtime
        self.config = config
        self.stats = stats
        #: Fleet member tasks; the daemon exits when all are done.
        self.watched = watched
        self.plan = plan
        self.wse = WorkingSetEstimator(alpha=config.wse_alpha)
        self.host = runtime.host_phys
        self._interval = config.scan_interval_ns
        self._below_min_rounds = 0
        self._spike_frames: List[int] = []
        self._spike_release_at: Optional[int] = None
        self.engine: Optional[Engine] = None
        self.task: Optional[SimTask] = None

    # -- wiring -----------------------------------------------------------

    def make_task(self, engine: Engine) -> SimTask:
        """Create, register, and return the daemon's engine task."""
        self.engine = engine
        self.task = SimTask(name="memqos", clock=Clock(0), stepper=self.step)
        engine.add(self.task)
        return self.task

    # -- one daemon round -------------------------------------------------

    def step(self) -> bool:
        """One reclaim round; parks itself until the next."""
        now = self.task.clock.now
        if all(t.done for t in self.watched):
            self._release_spike()
            return False
        if self._spike_release_at is not None and now >= self._spike_release_at:
            self._release_spike()
        self._maybe_spike(now)
        running = self._running()
        self._harvest(running)
        free = self.host.free_frames
        self.stats.note_free_frames(free)
        total = self.host.total_frames
        cfg = self.config
        high = int(total * cfg.high_watermark)
        low = int(total * cfg.low_watermark)
        minw = int(total * cfg.min_watermark)
        if free < low:
            released = self._reclaim(running, need=high - free)
            if released:
                self.stats.reclaim_rounds += 1
                self.stats.frames_reclaimed += released
                self._interval = cfg.scan_interval_ns
            else:
                # Nothing reclaimable this round: back off (capped) so
                # a dry fleet is not scanned at full cadence forever.
                self._interval = min(self._interval * 2, cfg.backoff_cap_ns)
            if free < minw:
                self._below_min_rounds += 1
                if self._below_min_rounds >= cfg.evict_after_rounds:
                    self._evict(running)
                    self._below_min_rounds = 0
            else:
                self._below_min_rounds = 0
        else:
            self._below_min_rounds = 0
            self._interval = cfg.scan_interval_ns
            if free > high:
                self.stats.frames_returned += self._deflate(running)
        self.engine.park(self.task, now + self._interval)
        return True

    # -- round phases -----------------------------------------------------

    def _running(self) -> List:
        """Running containers not marked for eviction, in launch order."""
        evicting = self.runtime.evicting
        return [
            c for c in self.runtime.containers
            if c.state == "running" and c.container_id not in evicting
        ]

    def _harvest(self, running: List) -> None:
        if not running:
            return
        self.stats.wse_scans += 1
        for c in running:
            accessed, scanned = c.machine.harvest_working_set(c.ctx)
            self.wse.update(c.container_id, accessed)
            self.stats.wse_entries_scanned += scanned
            self.stats.wse_pages_accessed += accessed

    def _maybe_spike(self, now: int) -> None:
        cfg = self.config
        plan = self.plan
        if plan is None or self._spike_frames:
            return
        if not plan.fires(SITE_MEMORY_PRESSURE, now):
            return
        frac = plan.uniform(SITE_MEMORY_PRESSURE, cfg.spike_frac_lo,
                            cfg.spike_frac_hi)
        take = min(int(self.host.total_frames * frac), self.host.free_frames)
        for _ in range(take):
            self._spike_frames.append(
                self.host.alloc_frame(tag="pressure-spike")
            )
        if take:
            self._spike_release_at = now + cfg.spike_hold_ns
            self.stats.pressure_spikes += 1

    def _release_spike(self) -> None:
        for hfn in self._spike_frames:
            self.host.free_frame(hfn)
        self._spike_frames.clear()
        self._spike_release_at = None

    def _reclaim(self, running: List, need: int) -> int:
        """Balloon guests proportionally to estimated idle memory."""
        if not running or need <= 0:
            return 0
        cfg = self.config
        idle = {
            c.container_id: self.wse.idle_pages(
                c.container_id, c.machine.resident_guest_pages()
            )
            for c in running
        }
        total_idle = sum(idle.values())
        released = 0
        for c in running:
            if total_idle > 0:
                share = math.ceil(need * idle[c.container_id] / total_idle)
            else:
                # No idle estimate anywhere (e.g. all guests cold):
                # spread the need evenly rather than doing nothing.
                share = math.ceil(need / len(running))
            share = min(share, cfg.reclaim_batch_pages)
            if share <= 0:
                continue
            dev = c.machine.balloon
            before = dev.host_frames_released
            dev.inflate(c.ctx, share << PAGE_SHIFT)
            got = dev.host_frames_released - before
            released += got
            c.machine.events.pressure_event("reclaim", max(1, got))
        return released

    def _deflate(self, running: List) -> int:
        """Relief: hand ballooned frames back to guests, batch-capped."""
        cfg = self.config
        returned = 0
        for c in running:
            dev = c.machine.balloon
            if not dev.held_pages:
                continue
            returned += dev.deflate(
                c.ctx, cfg.reclaim_batch_pages << PAGE_SHIFT
            )
        return returned

    def _evict(self, running: List) -> None:
        """Mark the lowest-priority guest for eviction.

        Ties break toward the *latest-launched* guest, so long-running
        members are disturbed last.  The victim's fleet member notices
        the mark at its next step, crashes it with reason ``"evicted"``
        (restart-budget-exempt), and restarts it through the normal
        recovery path once pressure clears.
        """
        if not running:
            return
        if self.runtime.fault_plan is None:
            # No supervisor to crash/restart the victim: an eviction
            # mark would just orphan it.  Unsupervised QoS fleets get
            # reclaim and admission control but not eviction.
            return
        victim = min(running, key=lambda c: (c.priority, -c.launch_seq))
        self.runtime.evict(victim)
        self.wse.forget(victim.container_id)
        self.stats.evictions += 1
        victim.machine.events.pressure_event("evict")
