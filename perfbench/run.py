"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fault_churn --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with nothing instrumented and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
executions of every work item and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in this one process and thread.  Virtual time is the
simulator's product and is only checked here, never timed: every item's
virtual outputs are hashed and compared with ``data/reference.json``
(for recorded seeds) and with every other execution of the same item.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

from probe import REFERENCE_S, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
#: Where the traced run writes its span file.
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("fault_churn", "switch_path", "fleets")
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5


def add_src_path() -> None:
    """Make the repository's ``src`` importable."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_json(name: str) -> dict:
    """Load one of the benchmark's data files."""
    with open(os.path.join(DATA, name)) as f:
        return json.load(f)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Checker:
    """Counts executions and failures, and checks virtual digests.

    An execution fails when it raises, breaks an invariant, or produces
    virtual outputs whose digest differs from the recorded reference for
    this seed or from an earlier execution of the same item.
    """

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        self.expected: Dict[str, str] = reference.get(workload, {}).get(
            str(seed), {})
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, item: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {item}: {why}", file=sys.stderr)

    def match(self, item: str, dig: str) -> bool:
        expected = self.expected.get(item)
        if expected is not None and dig != expected:
            self.fail(item, f"digest {dig} != reference {expected}")
            return False
        first = self.first.setdefault(item, dig)
        if dig != first:
            self.fail(item, f"digest {dig} != first execution's {first}")
            return False
        return True


def execute(wl, item, checker: Checker, tracer=None):
    """Prepare, time and verify one item.

    Returns ``(wall seconds, state, virtual outputs)``, or None when the
    execution failed.
    """
    checker.attempted += 1
    try:
        if tracer is not None:
            tracer.install()
        try:
            state = item.prepare()
            gc.collect()
            tlb0 = wl.tlb_counts(state)
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            start = time.perf_counter()
            virtual = item.run(state)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        # TLB lookups of the timed phase only: prepare may warm up.
        state["tlb_run"] = tuple(
            b - a for a, b in zip(tlb0, wl.tlb_counts(state)))
        item.verify(state)
    except Exception as exc:  # a failed item is reported, not fatal
        checker.fail(item.name, f"{type(exc).__name__}: {exc}")
        return None
    if not checker.match(item.name, wl.digest(virtual)):
        return None
    return wall, state, virtual


def set_up(workload: str, seed: int, probe):
    """Import the simulator, build the items, and warm up.

    Returns ``(workloads module, items, set-up seconds)``.  The set-up
    time is the import time plus the median of :data:`SETUP_REPEATS`
    rounds of building every item's inputs and machines and running the
    first item once.  It is reported at the reference host speed: divided
    by the median of the probes run between the steps, times
    :data:`probe.REFERENCE_S`.
    """
    probes = [probe.seconds()]
    start = time.perf_counter()
    add_src_path()
    import repro
    import workloads as wl

    import_s = time.perf_counter() - start
    probes.append(probe.seconds())
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from this checkout's {SRC}")
    rounds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = wl.WORKLOADS[workload](seed)
        for item in items:
            item.prepare()
        warm = items[0]
        state = warm.prepare()
        warm.run(state)
        warm.verify(state)
        rounds.append(time.perf_counter() - start)
        probes.append(probe.seconds())
    setup = (import_s + median(rounds)) / median(probes) * REFERENCE_S
    return wl, items, setup


def measure(wl, items, seconds: int, checker: Checker,
            probe) -> Dict[str, float]:
    """Untraced timed phase: whole passes over the items until time is up.

    A probe runs after every item; each item's time is also divided by
    the mean of the probes on either side of it.
    """
    walls: Dict[str, List[float]] = {item.name: [] for item in items}
    ratios: Dict[str, List[float]] = {item.name: [] for item in items}
    before = probe.seconds()
    deadline = time.perf_counter() + seconds
    while True:
        for item in items:
            result = execute(wl, item, checker)
            after = probe.seconds()
            if result is not None:
                walls[item.name].append(result[0])
                ratios[item.name].append(result[0] * 2 / (before + after))
            before = after
        if time.perf_counter() >= deadline:
            break
    return {
        "wall_s": sum(median(v) for v in walls.values()),
        "cost_norm": sum(median(v) for v in ratios.values()),
    }


class ItemTrace:
    """What the traced executions of one item recorded."""

    def __init__(self) -> None:
        self.untraced: List[float] = []
        self.traced: List[float] = []
        self.self_s: List[Dict[str, float]] = []
        self.unattributed: List[float] = []
        self.counts: Optional[dict] = None


def _trace_counts(wl, tracer, state, virtual) -> dict:
    hits, lookups = state["tlb_run"]
    return {
        "calls": dict(tracer.calls),
        "layer_calls": dict(tracer.layer_calls),
        "lock_wait_ns": tracer.lock_wait_ns,
        "engine_steps": tracer.engine_steps,
        "tlb_hits": hits,
        "tlb_lookups": lookups,
        "reclaimed_mib": wl.reclaimed_mib(virtual),
        "faults_injected": wl.faults_injected(virtual),
    }


def measure_traced(wl, items, seconds: int, checker: Checker,
                   span_path: str) -> Dict[str, float]:
    """Traced phase: each item runs untraced, then traced, per pass."""
    from spans import Tracer

    tracer = Tracer()
    records = {item.name: ItemTrace() for item in items}
    dumps = {}
    deadline = time.perf_counter() + seconds
    while True:
        for item in items:
            rec = records[item.name]
            result = execute(wl, item, checker)
            if result is not None:
                rec.untraced.append(result[0])
            result = execute(wl, item, checker, tracer)
            if result is None:
                continue
            wall, state, virtual = result
            rec.traced.append(wall)
            rec.self_s.append(dict(tracer.self_s))
            rec.unattributed.append(wall - tracer.top_s)
            counts = _trace_counts(wl, tracer, state, virtual)
            if rec.counts is None:
                rec.counts = counts
                dumps[item.name] = tracer.dump()
            elif counts != rec.counts:
                checker.fail(item.name, "traced call counts differ between "
                                        "executions")
            if tracer.layer_calls.get("sanitize"):
                checker.fail(item.name, "sanitizers ran with sanitize off")
        if time.perf_counter() >= deadline:
            break
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    with open(span_path, "w") as f:
        json.dump(dumps, f)
    return per_layer_metrics([r for r in records.values() if r.counts])


def per_layer_metrics(records: List[ItemTrace]) -> Dict[str, float]:
    """Per-layer metrics for one pass over the items.

    Counts come from one traced execution per item (they repeat
    exactly); times are per-item medians, summed over the items.
    """
    calls: Counter = Counter()
    layer_calls: Counter = Counter()
    totals: Counter = Counter()
    for rec in records:
        calls.update(rec.counts["calls"])
        layer_calls.update(rec.counts["layer_calls"])
        for key in ("lock_wait_ns", "engine_steps", "tlb_hits",
                    "tlb_lookups", "reclaimed_mib", "faults_injected"):
            totals[key] += rec.counts[key]

    def methods(layer: str, *names: str) -> int:
        return sum(n for q, n in calls.items()
                   if q.startswith(layer + ":")
                   and q.rsplit(".", 1)[1] in names)

    def self_ms(layer: str) -> float:
        return 1e3 * sum(median([s.get(layer, 0.0) for s in rec.self_s])
                         for rec in records)

    untraced = sum(median(rec.untraced) for rec in records)
    traced = sum(median(rec.traced) for rec in records)
    return {
        "hw.pagetable.walk_calls": methods("hw.pagetable", "walk"),
        "hw.pagetable.map_calls": methods("hw.pagetable", "map", "map_huge"),
        "hw.pagetable.unmap_calls": methods("hw.pagetable", "unmap",
                                            "unmap_huge"),
        "hw.pagetable.self_ms": self_ms("hw.pagetable"),
        "hypervisors.fault_calls": methods("hypervisors", "on_guest_fault",
                                           "on_ept_violation"),
        "hypervisors.self_ms": self_ms("hypervisors"),
        "core.shadow.sync_calls": methods("core.shadow", "sync"),
        "core.shadow.self_ms": self_ms("core.shadow"),
        "guest.kernel.calls": layer_calls["guest.kernel"],
        "guest.kernel.self_ms": self_ms("guest.kernel"),
        "sim.locks.calls": methods("sim.locks", "run_locked"),
        "sim.locks.self_ms": self_ms("sim.locks"),
        "sim.locks.wait_virtual_ms": totals["lock_wait_ns"] / 1e6,
        "hw.events.calls": layer_calls["hw.events"],
        "hw.events.self_ms": self_ms("hw.events"),
        "core.switcher.calls": layer_calls["core.switcher"],
        "core.switcher.self_ms": self_ms("core.switcher"),
        "hw.mmu.calls": layer_calls["hw.mmu"],
        "hw.mmu.self_ms": self_ms("hw.mmu"),
        "hw.tlb.hit_rate": (totals["tlb_hits"] / totals["tlb_lookups"]
                            if totals["tlb_lookups"] else 0.0),
        "hw.memory.calls": layer_calls["hw.memory"],
        "hw.memory.self_ms": self_ms("hw.memory"),
        "containers.launches": methods("containers", "launch"),
        "containers.restarts": methods("containers", "relaunch"),
        "containers.self_ms": self_ms("containers"),
        "memory.rounds": methods("memory", "step"),
        "memory.reclaimed_mb": totals["reclaimed_mib"],
        "memory.self_ms": self_ms("memory"),
        "io.balloon.calls": layer_calls["io.balloon"],
        "io.balloon.self_ms": self_ms("io.balloon"),
        "faults.injected": totals["faults_injected"],
        "sim.engine.steps": totals["engine_steps"],
        "sim.engine.parks": methods("sim.engine", "park"),
        "sim.engine.self_ms": self_ms("sim.engine"),
        "sanitize.calls": layer_calls["sanitize"],
        "trace.overhead": traced / untraced if untraced else 0.0,
        "trace.unattributed_ms": 1e3 * sum(median(rec.unattributed)
                                           for rec in records),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    probe = Probe()
    wl, items, setup_s = set_up(args.workload, args.seed, probe)
    checker = Checker(args.workload, args.seed, load_json("reference.json"))
    if args.trace:
        span_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        values = measure_traced(wl, items, args.seconds, checker, span_path)
        print(f"spans written to {os.path.relpath(span_path, ROOT)}")
    else:
        values = measure(wl, items, args.seconds, checker, probe)
        print(f"{'wall_s':28s} {values['wall_s']:>14.6g} s "
              "(raw host time, moves with host load)")
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values["model_err_pct"] = wl.model_error_pct(
            load_json("paper_tables.json"))

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    correct = checker.failed == 0 and checker.attempted > 0
    print(f"correct={correct} attempted={checker.attempted} "
          f"failed={checker.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
