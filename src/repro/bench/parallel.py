"""Parallel experiment fan-out with a deterministic merge.

Every cell of the evaluation surface is a pure function of
``(experiment, row key, scale, params)`` over freshly-built machines — the
virtual-clock design shares no state across rows — so rows can be
computed in any order, in any process, and merged back in paper order
with output **bit-identical** to the serial run.  This module turns
that property into wall-clock speedup:

* :func:`plan_units` shards a set of experiments into per-row
  :class:`WorkUnit` descriptors,
* :func:`map_units` fans any picklable unit function out across a
  ``ProcessPoolExecutor`` (``jobs=1`` degenerates to an in-process
  loop — the two paths share every line of row computation),
* :func:`run_experiments` layers the content-keyed result cache of
  :mod:`repro.bench.cache` underneath, so unchanged work units are
  served from disk instead of recomputed.

See docs/parallel.md for the work-unit model and cache-key anatomy.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.bench.experiments import ALL_EXPERIMENTS, Row
from repro.bench.harness import ExperimentResult

#: Per-experiment parameter overrides: ``{exp_id: {name: value}}``.
Params = Mapping[str, Mapping[str, Any]]


@dataclass(frozen=True)
class WorkUnit:
    """One independently computable row of one experiment."""

    exp_id: str
    row_index: int
    #: The row key (a label string) — redundant with ``row_index`` but
    #: part of the cache key so renaming/reordering rows invalidates.
    row_key: str
    scale: float
    #: Sorted ``(name, value)`` pairs with the defaults filled in
    #: (:meth:`ExperimentSpec.bind`); part of the cache key, so a
    #: re-seeded or re-parameterized row never shares an entry.
    params: Tuple[Tuple[str, Any], ...] = ()


@dataclass
class RunStats:
    """What one :func:`run_experiments` call did, for the CLI."""

    units: int = 0
    computed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Sum of per-unit compute time (the serial-equivalent cost).
    compute_seconds: float = 0.0


def plan_units(exp_ids: Sequence[str], scale: float = 1.0,
               params: Optional[Params] = None) -> List[WorkUnit]:
    """Shard ``exp_ids`` into per-row work units, paper order."""
    params = params or {}
    units: List[WorkUnit] = []
    for exp_id in exp_ids:
        spec = ALL_EXPERIMENTS[exp_id]
        bound = spec.bind(params.get(exp_id))
        for index, key in enumerate(spec.keys):
            units.append(WorkUnit(exp_id, index, key, scale, bound))
    return units


def compute_unit(unit: WorkUnit) -> Tuple[Row, float]:
    """Compute one row; returns ``(row, compute_seconds)``.

    Module-level so it pickles by reference into worker processes.
    """
    spec = ALL_EXPERIMENTS[unit.exp_id]
    t0 = time.perf_counter()
    row = Row(*spec.row(unit.row_key, unit.scale, **dict(unit.params)))
    return row, time.perf_counter() - t0


def _mp_context():
    """Prefer fork (workers inherit the imported simulator for free);
    fall back to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def map_units(fn: Callable, items: Iterable, jobs: int = 1) -> List:
    """Order-preserving map, fanned across processes when ``jobs > 1``.

    ``fn`` must be picklable (a module-level callable or a
    ``functools.partial`` over one).  With ``jobs <= 1`` this is a plain
    in-process loop, so serial and parallel runs share the exact same
    computation per item.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_mp_context()) as pool:
        # chunksize=1 hands units out one at a time, so a cheap row
        # never queues behind an expensive one on the same worker.
        return list(pool.map(fn, items, chunksize=1))


def _assemble(
    exp_ids: Sequence[str],
    scale: float,
    rows: Dict[Tuple[str, int], Row],
    params: Optional[Params] = None,
) -> "Dict[str, ExperimentResult]":
    """Merge computed rows back into results, paper order.  Purely a
    function of the row data — completion order cannot leak in.  When
    the rows ran sanitized fleets, their totals become the notes."""
    params = params or {}
    out: Dict[str, ExperimentResult] = {}
    for exp_id in exp_ids:
        spec = ALL_EXPERIMENTS[exp_id]
        result = spec.header(scale, **params.get(exp_id, {}))
        checks = violations = 0
        for index in range(len(spec.keys)):
            row = rows[(exp_id, index)]
            result.add(row.label, list(row.values))
            checks += row.sanitize[0]
            violations += row.sanitize[1]
        if spec.finalize is not None:
            spec.finalize(result)
        if checks > 0:
            result.notes = (f"sanitize: {checks} checks, "
                            f"{violations} violations")
        out[exp_id] = result
    return out


def run_experiments(
    exp_ids: Sequence[str],
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[object] = None,
    params: Optional[Params] = None,
) -> Tuple[Dict[str, ExperimentResult], RunStats]:
    """Regenerate several experiments, fanning rows across ``jobs``
    worker processes and serving unchanged rows from ``cache`` (a
    :class:`repro.bench.cache.ResultCache` or None).  ``params`` maps an
    experiment id to its parameter overrides.

    Returns ``(results by exp_id, RunStats)``; results are bit-identical
    whatever ``jobs`` is and whichever rows come from the cache.
    """
    t0 = time.perf_counter()
    exp_ids = list(dict.fromkeys(exp_ids))  # dedupe, keep order
    units = plan_units(exp_ids, scale, params)
    stats = RunStats(units=len(units), jobs=max(1, jobs))
    rows: Dict[Tuple[str, int], Row] = {}
    pending: List[WorkUnit] = []
    for unit in units:
        hit = cache.get(unit) if cache is not None else None
        if hit is not None:
            rows[(unit.exp_id, unit.row_index)] = Row(*hit)
            stats.cache_hits += 1
        else:
            pending.append(unit)
    for unit, (row, seconds) in zip(
            pending, map_units(compute_unit, pending, jobs)):
        rows[(unit.exp_id, unit.row_index)] = row
        stats.computed += 1
        stats.compute_seconds += seconds
        if cache is not None:
            cache.put(unit, (row.label, row.values))
    results = _assemble(exp_ids, scale, rows, params)
    stats.wall_seconds = time.perf_counter() - t0
    return results, stats


def run_experiment(
    exp_id: str,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[object] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> ExperimentResult:
    """One experiment through the work-unit engine (see
    :func:`run_experiments`)."""
    results, _ = run_experiments([exp_id], scale=scale, jobs=jobs,
                                 cache=cache, params={exp_id: params or {}})
    return results[exp_id]
