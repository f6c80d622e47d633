"""``pvm-bench``: regenerate the paper's tables and figures.

Examples::

    pvm-bench --list
    pvm-bench table1 table2
    pvm-bench fig10 --scale 2.0
    pvm-bench all --jobs 4          # fan rows across 4 worker processes
    pvm-bench all --no-cache        # recompute everything
    pvm-bench all --cache-dir /tmp/c

Experiment runs always go through the work-unit engine
(:mod:`repro.bench.parallel`): ``--jobs 1`` computes the same units
in-process, so parallel output is bit-identical to serial output.  A
content-keyed result cache (:mod:`repro.bench.cache`) is on by default;
re-running after a change that does not touch ``src/repro`` or the cost
model serves every row from disk (the trailing ``cache:`` stats line
shows the hit rate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.parallel import RunStats, run_experiments
from repro.bench.report import render, render_chart


#: Experiments whose fault plan ``--fault-seed`` re-seeds.
SEEDED = [exp_id for exp_id, spec in ALL_EXPERIMENTS.items()
          if "seed" in spec.params]


def _stats_line(stats: RunStats, cache_enabled: bool) -> str:
    """The trailing cache/fan-out summary printed after the tables."""
    if cache_enabled:
        total = stats.cache_hits + stats.computed
        rate = stats.cache_hits / total if total else 0.0
        cache_part = (f"cache: {stats.cache_hits} hits, "
                      f"{stats.computed} misses ({rate:.0%} hit rate)")
    else:
        cache_part = "cache: off"
    return (f"{cache_part} | {stats.units} units @ {stats.jobs} jobs | "
            f"{stats.wall_seconds:.1f}s wall "
            f"({stats.compute_seconds:.1f}s compute)")


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="pvm-bench",
        description="Regenerate the PVM paper's tables and figures "
                    "on the simulation substrate.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}) or 'all'; "
             "'wallclock' runs the simulator-throughput microbenchmark; "
             "'selftest' runs the sanitizer bug drills + a sanitized "
             "chaos smoke",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (1.0 = quick default)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the row fan-out (1 = in-process; "
             "output is bit-identical either way)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache and recompute every work unit",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="re-seed the fault plan of every experiment that takes a "
             f"seed ({', '.join(SEEDED)}); re-seeded rows are cached "
             "under their seed and fan out like any other run",
    )
    parser.add_argument(
        "--sanitize", nargs="?", const="sampled", default=None,
        choices=["sampled", "full"], metavar="MODE",
        help="attach the runtime sanitizers (repro.sanitize) to every "
             "machine: MODE is 'sampled' (default) or 'full'; implies "
             "recomputing every row, since cached rows would skip the "
             "checks",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of tables",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="(wallclock only) rewrite BENCH_walk.json from this run",
    )
    args = parser.parse_args(argv)

    if args.sanitize is not None:
        # Machines consult PVM_SANITIZE at construction, so the flag
        # reaches every machine any experiment builds — including in
        # worker processes, which inherit the environment.
        os.environ["PVM_SANITIZE"] = args.sanitize

    if "selftest" in args.experiments:
        # Sanitizer smoke gate: seeded bug drills (each checker must
        # catch its planted bug) + one sanitized chaos scenario.
        from repro.sanitize.selftest import run_selftest

        return run_selftest(mode=args.sanitize or "sampled")

    if "wallclock" in args.experiments:
        # Simulator-throughput benchmark: separate driver, separate
        # output contract (one-line summary + baseline gate).
        from repro.bench.wallclock import run_wallclock

        return run_wallclock(
            scale=args.scale, update_baseline=args.update_baseline
        )

    if args.list or not args.experiments:
        for exp_id, spec in ALL_EXPERIMENTS.items():
            print(f"{exp_id:10s} {spec.summary}")
        return 0

    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2

    use_cache = not args.no_cache and args.sanitize is None
    cache = ResultCache(args.cache_dir) if use_cache else None
    seed = {} if args.fault_seed is None else {"seed": args.fault_seed}
    params = {exp_id: seed for exp_id in wanted if exp_id in SEEDED}
    results, stats = run_experiments(
        wanted, scale=args.scale, jobs=args.jobs, cache=cache, params=params
    )
    if args.as_json:
        json_out = {
            exp_id: {
                "title": results[exp_id].title,
                "unit": results[exp_id].unit,
                "notes": results[exp_id].notes,
                "data": results[exp_id].as_dict(),
            }
            for exp_id in dict.fromkeys(wanted)
        }
        json_out["_run"] = {
            "jobs": stats.jobs,
            "units": stats.units,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.computed,
            "wall_seconds": round(stats.wall_seconds, 2),
            "compute_seconds": round(stats.compute_seconds, 2),
        }
        print(json.dumps(json_out, indent=2, default=str))
        return 0
    for exp_id in dict.fromkeys(wanted):
        result = results[exp_id]
        print(render_chart(result) if args.chart else render(result))
        print()
    print(_stats_line(stats, cache_enabled=cache is not None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
