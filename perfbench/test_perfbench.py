"""Tests of the benchmark itself.

Run from the repository root with
``python3 -m pytest -p no:cacheprovider perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

run.add_src_path()

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def _item(workload: str, seed: int, name: str):
    return next(i for i in wl.WORKLOADS[workload](seed) if i.name == name)


def _execute(item, traced: bool):
    """One execution; returns (digest, traced call counts or None, virtual)."""
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        state = item.prepare()
        if tracer is not None:
            tracer.active = True
        virtual = item.run(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    item.verify(state)
    calls = dict(tracer.calls) if tracer is not None else None
    return wl.digest(virtual), calls, virtual


@pytest.mark.parametrize("workload, name", [
    ("fault_churn", "pvm (NST)"),
    ("switch_path", "kvm-ept (NST)"),
    ("fleets", "pvm (NST)/chaos"),
])
def test_same_seed_same_digest_and_counts(workload, name):
    plain, _, _ = _execute(_item(workload, 7, name), traced=False)
    first, calls_a, _ = _execute(_item(workload, 7, name), traced=True)
    second, calls_b, _ = _execute(_item(workload, 7, name), traced=True)
    assert plain == first == second
    assert calls_a == calls_b
    assert calls_a


def test_switch_path_maps_nothing_and_stays_off_page_tables():
    _, calls, _ = _execute(_item("switch_path", 3, "pvm (NST)"), traced=True)
    assert not any(q.startswith("hw.pagetable:") for q in calls)
    assert any(q.startswith("core.switcher:") for q in calls)


def test_seed_changes_fleet_fault_schedule_and_keeps_invariants():
    schedules = []
    for seed in (1, 2):
        for name in ("kvm-ept (NST)/chaos", "pvm (NST)/overcommit"):
            # verify() inside _execute raises on a broken invariant.
            _, _, virtual = _execute(_item("fleets", seed, name), traced=False)
            schedules.append((name, virtual["faults"], virtual["recovery"]))
    assert schedules[0] != schedules[2]
    assert schedules[1] != schedules[3]


def test_recorded_reference_matches():
    reference = run.load_json("reference.json")
    for workload, by_seed in reference.items():
        seed = min(by_seed, key=int)
        name, expected = sorted(by_seed[seed].items())[0]
        got, _, _ = _execute(_item(workload, int(seed), name), traced=False)
        assert got == expected, (workload, seed, name)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_output_contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "switch_path",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleets",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
