"""Wall-clock throughput microbenchmarks for the simulator itself.

Virtual-time experiments measure the *modeled* system; this module
measures the *simulator* — translations per wall-clock second through
the MMU hot path, page-walk throughput on TLB-miss-heavy working sets,
and end-to-end fault service throughput on a full PVM machine — so
every PR leaves a perf trajectory behind in ``BENCH_walk.json``.

To make speedups attributable rather than folklore, the legacy TLB
design this PR replaced (two ``OrderedDict``s keyed by ``(Asid, vpn)``
tuples of frozen dataclasses, no ``__slots__`` entries) is kept here as
``_LegacyTlb`` and driven through the same access sequence in the same
run; ``speedup_vs_legacy`` is therefore measured on identical hardware
under identical interpreter state, not against a stale recorded number.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable, Pte
from repro.hw.tlb import HUGE_SPAN, Tlb
from repro.hw.types import MIB, PAGE_SIZE, AccessType, Asid
from repro.sim.clock import Clock

#: The perf-trajectory file, checked in at the repo root.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_walk.json"

#: Allowed wall-clock slowdown versus the checked-in baseline before the
#: regression gate trips (wall time is noisy; virtual time is exact).
REGRESSION_TOLERANCE = 0.20

#: Metrics gated against the baseline (higher is better).  Same-run
#: ratios are held to ``REGRESSION_TOLERANCE``; absolute ``*_per_sec``
#: rates get the looser ``ABSOLUTE_TOLERANCE`` — see ``check_regressions``.
GATED_METRICS = (
    "speedup_vs_legacy",
    "warm_translations_per_sec",
    "miss_walks_per_sec",
    "faults_per_sec",
    "parallel_speedup",
    "qos_off_fleet_pages_per_sec",
)

#: Tolerance for absolute wall-clock rates.  Shared hosts show ±30%
#: phase-to-phase load swings that no repeat count irons out, so the
#: absolute gates are sized to catch 2x-class implementation regressions
#: while the tight gate rides on the load-immune same-run ratios.
ABSOLUTE_TOLERANCE = 0.50

#: Timed repetitions per phase; the best (minimum elapsed) repetition is
#: reported, approximating the noise-free rate on a shared host.
REPEATS = 3


def _best_elapsed(loop, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# The pre-PR TLB design, preserved for same-run comparison
# ---------------------------------------------------------------------------


@dataclass
class _LegacyTlbEntry:
    """Seed-era entry: a plain dataclass without ``__slots__``."""

    frame: int
    global_: bool = False
    huge: bool = False


class _LegacyTlb:
    """The seed TLB: two OrderedDicts keyed by (Asid, vpn) tuples."""

    def __init__(self, capacity: int = 1536) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[Asid, int], _LegacyTlbEntry]" = (
            OrderedDict()
        )
        self._huge: "OrderedDict[Tuple[Asid, int], _LegacyTlbEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries) + len(self._huge)

    def lookup(self, asid: Asid, vpn: int) -> Optional[int]:
        entry = self._entries.get((asid, vpn))
        if entry is not None:
            return entry.frame
        huge = self._huge.get((asid, vpn >> 9))
        if huge is not None:
            return huge.frame + (vpn % HUGE_SPAN)
        return None

    def insert(self, asid: Asid, vpn: int, frame: int, huge: bool = False) -> None:
        if huge:
            key = (asid, vpn >> 9)
            self._huge[key] = _LegacyTlbEntry(
                frame=frame - (vpn % HUGE_SPAN), huge=True
            )
            self._huge.move_to_end(key)
            return
        key = (asid, vpn)
        if key not in self._entries and len(self) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = _LegacyTlbEntry(frame=frame)
        self._entries.move_to_end(key)


def _legacy_access_1d(
    clock: Clock,
    tlb: _LegacyTlb,
    asid: Asid,
    pt: PageTable,
    vpn: int,
    access: AccessType,
    user: bool,
) -> int:
    """The seed ``Mmu.access_1d`` body over the legacy TLB."""
    cached = tlb.lookup(asid, vpn)
    if cached is not None:
        clock.advance(DEFAULT_COSTS.tlb_hit)
        return cached
    result = pt.walk(vpn, access, user)
    clock.advance(pt.levels * DEFAULT_COSTS.walk_step_1d)
    tlb.insert(asid, vpn, result.frame, huge=result.huge)
    return result.frame


# ---------------------------------------------------------------------------
# Benchmark phases
# ---------------------------------------------------------------------------


def _mapped_table(npages: int) -> PageTable:
    phys = PhysicalMemory("bench", 64 * MIB)
    pt = PageTable(phys, "bench-pt")
    for vpn in range(npages):
        pt.map(vpn, Pte(frame=vpn + 0x1000))
    return pt


def bench_warm_translations(iters: int, working_set: int = 512) -> Dict[str, float]:
    """Warm-TLB hot loop: every access is a TLB hit (the common case any
    translation-bound simulation spends its wall clock in).  Returns the
    packed-key and legacy throughputs measured back to back."""
    pt = _mapped_table(working_set)
    asid = Asid(vpid=1, pcid=3)
    access = AccessType.READ
    seq = list(range(working_set))

    mmu = Mmu(Tlb(), EventLog(), DEFAULT_COSTS)
    clock = Clock()
    for vpn in seq:  # warm fill
        mmu.access_1d(clock, asid, pt, vpn, access, True)

    def new_loop() -> None:
        for _ in range(iters):
            for vpn in seq:
                mmu.access_1d(clock, asid, pt, vpn, access, True)

    legacy_tlb = _LegacyTlb()
    legacy_clock = Clock()
    for vpn in seq:
        _legacy_access_1d(legacy_clock, legacy_tlb, asid, pt, vpn, access, True)

    def legacy_loop() -> None:
        for _ in range(iters):
            for vpn in seq:
                _legacy_access_1d(
                    legacy_clock, legacy_tlb, asid, pt, vpn, access, True
                )

    # Interleave the repetitions so both implementations sample the same
    # load windows — back-to-back blocks make the speedup ratio hostage
    # to whatever else the host was doing during one of them.
    new_dt = legacy_dt = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        new_loop()
        new_dt = min(new_dt, time.perf_counter() - t0)
        t0 = time.perf_counter()
        legacy_loop()
        legacy_dt = min(legacy_dt, time.perf_counter() - t0)

    ops = iters * working_set
    return {
        "warm_translations_per_sec": ops / new_dt,
        "legacy_translations_per_sec": ops / legacy_dt,
        "speedup_vs_legacy": legacy_dt / new_dt,
    }


def bench_miss_walks(iters: int, working_set: int = 4096) -> Dict[str, float]:
    """TLB-miss-heavy loop: the working set is ~3x TLB capacity, so the
    sequential sweep thrashes the TLB and every pass re-walks at full
    depth.  Reports the TLB hit rate alongside throughput (0 when every
    access misses, as it should)."""
    pt = _mapped_table(working_set)
    asid = Asid(vpid=1, pcid=3)
    access = AccessType.READ
    mmu = Mmu(Tlb(), EventLog(), DEFAULT_COSTS)
    clock = Clock()
    seq = list(range(working_set))
    for vpn in seq:  # steady-state the TLB
        mmu.access_1d(clock, asid, pt, vpn, access, True)
    mmu.tlb.stats.reset()

    def miss_loop() -> None:
        for _ in range(iters):
            for vpn in seq:
                mmu.access_1d(clock, asid, pt, vpn, access, True)

    dt = _best_elapsed(miss_loop)
    ops = iters * working_set
    return {
        "miss_walks_per_sec": ops / dt,
        "miss_tlb_hit_rate": mmu.tlb.stats.hit_rate,
    }


def bench_faults(npages: int) -> Dict[str, float]:
    """End-to-end fault service on a full PVM (BM) machine: mmap a fresh
    region and demand-fault every page (two-phase shadow fault dance per
    page) — the simulator's heaviest per-operation path."""
    from repro import make_machine

    best = float("inf")
    for _ in range(REPEATS):  # fresh machine per repeat: cold faults only
        machine = make_machine("pvm (BM)")
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, npages * PAGE_SIZE)
        t0 = time.perf_counter()
        for vpn in range(vma.start_vpn, vma.start_vpn + npages):
            machine.touch(ctx, proc, vpn, write=True)
        best = min(best, time.perf_counter() - t0)
    return {"faults_per_sec": npages / best}


def bench_qos_fleet(scale: float = 1.0) -> Dict[str, float]:
    """Fleet throughput with the memory-QoS hooks off versus on.

    ``memory_qos=None`` must cost nothing: every QoS code path in the
    runtime and the machines is gated on the config, so a QoS-less
    fleet run should be as fast as it was before the subsystem existed.
    ``qos_off_fleet_pages_per_sec`` records that trajectory (gated
    against the baseline like the other absolute rates); the same-run
    ``qos_off_speedup_vs_on`` ratio additionally shows what the reclaim
    daemon's scans cost when the subsystem *is* enabled.
    """
    from repro.containers.runtime import RunDRuntime
    from repro.hypervisors.base import MachineConfig
    from repro.memory.qos import MemoryQosConfig
    from repro.workloads.memalloc import memalloc

    n = 4
    total = max(1, int(2 * scale)) * MIB

    def fleet(qos) -> None:
        runtime = RunDRuntime(
            "pvm (NST)", config=MachineConfig(), memory_qos=qos
        )
        runtime.run_fleet(n, memalloc, total_bytes=total, release=True)

    off_dt = on_dt = float("inf")
    for _ in range(REPEATS):  # interleaved: both sample the same load
        t0 = time.perf_counter()
        fleet(None)
        off_dt = min(off_dt, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fleet(MemoryQosConfig())
        on_dt = min(on_dt, time.perf_counter() - t0)

    pages = n * (total // PAGE_SIZE)
    return {
        "qos_off_fleet_pages_per_sec": pages / off_dt,
        "qos_on_fleet_pages_per_sec": pages / on_dt,
        "qos_off_speedup_vs_on": on_dt / off_dt,
    }


#: Experiments whose rows form the parallel-speedup work-unit set:
#: 9 units of uneven cost, enough to keep 4 workers busy.
PARALLEL_BENCH_EXPERIMENTS = ("fig4", "table4")
#: Worker-process cap for the fan-out phase (the acceptance target is
#: a 4-core host; more workers than cores only adds scheduler noise).
PARALLEL_BENCH_JOBS = 4


def bench_parallel_speedup(scale: float = 1.0) -> Dict[str, float]:
    """Fan-out throughput of the parallel experiment engine: the same
    work-unit set computed in-process and across a process pool, in one
    run.  Like ``speedup_vs_legacy``, the ratio is host-load-immune —
    both sides sample the same machine — but it additionally depends on
    core count, so ``parallel_jobs`` is recorded alongside and the gate
    waives the metric on hosts smaller than the baseline's.

    On a single-hardware-thread host the pool degenerates to the serial
    path and the speedup is 1.0 by definition (no fan-out to measure).
    """
    from repro.bench import parallel as par

    units = par.plan_units(PARALLEL_BENCH_EXPERIMENTS, scale=0.25 * scale)
    t0 = time.perf_counter()
    serial = par.map_units(par.compute_unit, units, jobs=1)
    serial_dt = time.perf_counter() - t0
    jobs = min(PARALLEL_BENCH_JOBS, os.cpu_count() or 1)
    if jobs < 2:
        return {
            "parallel_speedup": 1.0,
            "parallel_jobs": 1,
            "parallel_units_per_sec": len(units) / serial_dt,
        }
    t0 = time.perf_counter()
    fanned = par.map_units(par.compute_unit, units, jobs=jobs)
    fanned_dt = time.perf_counter() - t0
    if [row for row, _ in fanned] != [row for row, _ in serial]:
        raise RuntimeError(
            "parallel fan-out diverged from the serial run — the "
            "determinism guarantee is broken"
        )
    return {
        "parallel_speedup": serial_dt / fanned_dt,
        "parallel_jobs": jobs,
        "parallel_units_per_sec": len(units) / fanned_dt,
    }


def run_benchmarks(scale: float = 1.0) -> Dict[str, float]:
    """Run all phases; ``scale`` multiplies iteration counts."""
    results: Dict[str, float] = {}
    results.update(bench_warm_translations(iters=max(1, int(120 * scale))))
    results.update(bench_miss_walks(iters=max(1, int(12 * scale))))
    results.update(bench_faults(npages=max(64, int(3000 * scale))))
    results.update(bench_qos_fleet(scale=scale))
    results.update(bench_parallel_speedup(scale=scale))
    return results


# ---------------------------------------------------------------------------
# Baseline gate
# ---------------------------------------------------------------------------


def load_baseline(path: Path = BASELINE_PATH) -> Optional[Dict]:
    """The checked-in baseline, or None when absent."""
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_baseline(results: Dict[str, float], path: Path = BASELINE_PATH) -> None:
    """Rewrite the checked-in baseline from this run."""
    payload = {
        "generated_by": "python -m repro.bench.cli wallclock --update-baseline",
        "schema": 1,
        "results": {k: round(v, 2) for k, v in sorted(results.items())},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def check_regressions(
    results: Dict[str, float],
    baseline: Dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Gated metrics that fell below their tolerance versus baseline.

    The same-run ratio ``speedup_vs_legacy`` is immune to host load —
    both sides of the ratio slow down together — so it carries the
    tight ``tolerance``.  Absolute ``*_per_sec`` rates move with
    whatever else the machine is running and are held to the looser
    :data:`ABSOLUTE_TOLERANCE`; the legacy loop additionally serves as a
    host-speed probe, waiving absolute shortfalls outright when the
    untouched legacy code slowed past tolerance too.
    ``parallel_speedup`` is also a same-run ratio, but it scales with
    core count, so it is waived when this host has fewer workers
    (``parallel_jobs``) than the baseline host had.
    """
    failures = []
    base = baseline.get("results", {})
    ref_legacy = base.get("legacy_translations_per_sec")
    cur_legacy = results.get("legacy_translations_per_sec")
    host_slow = bool(
        ref_legacy and cur_legacy and cur_legacy < ref_legacy * (1.0 - tolerance)
    )
    for metric in GATED_METRICS:
        ref = base.get(metric)
        if not ref:
            continue
        if metric == "parallel_speedup" and (
            results.get("parallel_jobs", 0) < base.get("parallel_jobs", 0)
        ):
            # Fewer hardware threads than the baseline host: the fan-out
            # cannot reach the recorded speedup no matter the code.
            continue
        absolute = metric.endswith("_per_sec")
        tol = max(tolerance, ABSOLUTE_TOLERANCE) if absolute else tolerance
        cur = results.get(metric, 0.0)
        if cur < ref * (1.0 - tol):
            if absolute and host_slow:
                continue  # legacy slowed identically: load, not a regression
            failures.append(
                f"{metric}: {cur:,.2f} is {1 - cur / ref:.0%} below "
                f"baseline {ref:,.2f}"
            )
    return failures


def summary_line(results: Dict[str, float]) -> str:
    """The one-line human summary the CLI prints."""
    line = (
        f"wallclock: {results['warm_translations_per_sec'] / 1e6:.2f}M warm "
        f"trans/s ({results['speedup_vs_legacy']:.2f}x vs legacy), "
        f"{results['miss_walks_per_sec'] / 1e3:.0f}k miss-walks/s, "
        f"{results['faults_per_sec'] / 1e3:.1f}k faults/s"
    )
    if "parallel_speedup" in results:
        line += (
            f", fan-out {results['parallel_speedup']:.2f}x "
            f"@{int(results.get('parallel_jobs', 1))}j"
        )
    if "qos_off_speedup_vs_on" in results:
        line += f", qos-off {results['qos_off_speedup_vs_on']:.2f}x vs on"
    return line


def run_wallclock(
    scale: float = 1.0,
    update_baseline: bool = False,
    path: Path = BASELINE_PATH,
) -> int:
    """CLI driver: run, print one line, gate against the baseline.

    Returns a process exit code (1 on regression beyond tolerance).
    """
    results = run_benchmarks(scale=scale)
    print(summary_line(results))
    if update_baseline:
        write_baseline(results, path)
        print(f"baseline updated: {path}")
        return 0
    if scale != 1.0:
        # Short runs under-amortize setup; comparing them against the
        # full-scale baseline produces spurious regressions.
        print(f"note: gate skipped (scale {scale:g} != 1.0, baseline is full-scale)")
        return 0
    baseline = load_baseline(path)
    if baseline is None:
        write_baseline(results, path)
        print(f"no baseline found; wrote {path}")
        return 0
    failures = check_regressions(results, baseline)
    for failure in failures:
        print(f"REGRESSION {failure}")
    if not failures:
        print(f"ok: within {REGRESSION_TOLERANCE:.0%} of baseline ({path.name})")
    return 1 if failures else 0
