"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures via
:mod:`repro.bench.experiments` and asserts its headline *shape* claim
(who wins, roughly by how much).  Absolute numbers are simulated
nanoseconds — see EXPERIMENTS.md for the paper-vs-measured record.

Pass ``--bench-jobs N`` (or set ``PVM_BENCH_JOBS=N``) to fan each
experiment's rows, with whatever parameters the benchmark passes,
across N worker processes via :mod:`repro.bench.parallel`; results are
bit-identical to the serial run, so every shape assertion is
unaffected.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.experiments import ExperimentSpec

#: Worker processes for registry experiments; overridden by
#: ``--bench-jobs`` in pytest_configure.
_JOBS = int(os.environ.get("PVM_BENCH_JOBS", "1") or 1)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-jobs", action="store", type=int, default=None,
        help="fan experiment rows across N worker processes "
             "(bit-identical to serial; default $PVM_BENCH_JOBS or 1)",
    )


def pytest_configure(config):
    global _JOBS
    jobs = config.getoption("--bench-jobs", default=None)
    if jobs:
        _JOBS = jobs


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Registry experiments are routed through the parallel work-unit
    engine when jobs > 1.
    """
    if _JOBS > 1 and isinstance(fn, ExperimentSpec):
        from repro.bench.parallel import run_experiment

        params = dict(kwargs)
        scale = params.pop("scale", args[0] if args else 1.0)
        return benchmark.pedantic(
            run_experiment, args=(fn.exp_id, scale),
            kwargs={"jobs": _JOBS, "params": params},
            rounds=1, iterations=1, warmup_rounds=0,
        )
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
