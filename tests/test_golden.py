"""Golden snapshot of the whole experiment matrix.

``GOLDEN_experiments.json`` (repo root) holds every row of every
experiment in ``ALL_EXPERIMENTS`` at ``GOLDEN_SCALE``, with chaos and
overcommit at their default fault seeds.  Virtual time is exact, so the
comparison is bit for bit: a refactor that moves any cell fails here
with a per-row diff.  A change that is meant to move the model
regenerates the file with ``--update-golden`` and says why in
CHANGES.md.

* The fast set (experiments whose cost follows ``scale``) is tier-1.
* The six experiments that ignore ``scale`` take minutes; they run under
  the ``golden_full`` marker, together with the fast set re-run under
  ``PVM_SANITIZE=full``, which must produce the same rows.

Regenerate everything::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden \\
        -m "golden_full or not golden_full" -k "not sanitize"
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.parallel import compute_unit, map_units, plan_units

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "GOLDEN_experiments.json"
GOLDEN_SCALE = 0.02

FAST = ("switchcost", "bootstorm", "table1", "table2", "fig4", "table4",
        "chaos", "overcommit")
SLOW = ("fig2", "fig10", "table3", "fig11", "fig12", "fig13")


def test_sets_cover_all_experiments():
    assert sorted(FAST + SLOW) == sorted(ALL_EXPERIMENTS)


def compute_rows(exp_ids, jobs=1):
    """``{exp_id: [[label, [values...]], ...]}`` in paper order, as
    the row work units compute them (before any finalize step)."""
    units = plan_units(exp_ids, GOLDEN_SCALE)
    out = {exp_id: [] for exp_id in exp_ids}
    for unit, (row, _) in zip(units, map_units(compute_unit, units, jobs)):
        out[unit.exp_id].append([row.label, row.values])
    # A JSON round trip gives computed and stored rows the same types.
    return json.loads(json.dumps(out))


def load_golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def write_golden(rows):
    golden = load_golden() if GOLDEN_PATH.exists() else {
        "scale": GOLDEN_SCALE, "experiments": {}}
    golden["experiments"].update(rows)
    golden["experiments"] = {
        exp_id: golden["experiments"][exp_id]
        for exp_id in ALL_EXPERIMENTS if exp_id in golden["experiments"]}
    # One row per line keeps diffs of the file readable.
    lines = ["{", f' "scale": {json.dumps(golden["scale"])},',
             ' "experiments": {']
    exps = list(golden["experiments"].items())
    for i, (exp_id, rows) in enumerate(exps):
        lines.append(f"  {json.dumps(exp_id)}: [")
        lines += [f"   {json.dumps(row)}" + ("," if j < len(rows) - 1 else "")
                  for j, row in enumerate(rows)]
        lines.append("  ]" + ("," if i < len(exps) - 1 else ""))
    lines += [" }", "}"]
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def diff_rows(expected, actual):
    """Human-readable per-row differences; empty when identical."""
    lines = []
    for exp_id in expected:
        want, got = expected[exp_id], actual.get(exp_id, [])
        if len(want) != len(got):
            lines.append(f"{exp_id}: {len(want)} rows in golden, "
                         f"{len(got)} computed")
        for (wl, wv), (gl, gv) in zip(want, got):
            if wl != gl:
                lines.append(f"{exp_id}: row label {wl!r} -> {gl!r}")
            elif len(wv) != len(gv) or not all(map(_same, wv, gv)):
                lines.append(f"{exp_id} / {wl}:\n    golden   {wv}\n"
                             f"    computed {gv}")
    return lines


def check(exp_ids, request, jobs=1):
    rows = compute_rows(exp_ids, jobs)
    if request.config.getoption("--update-golden"):
        write_golden(rows)
        return
    golden = load_golden()
    assert golden["scale"] == GOLDEN_SCALE
    expected = {exp_id: golden["experiments"][exp_id] for exp_id in exp_ids}
    lines = diff_rows(expected, rows)
    assert not lines, "golden snapshot mismatch:\n" + "\n".join(lines)


def test_diff_rows_reports_moved_cell():
    golden = {"t": [["a", [1.0, float("nan")]], ["b", [2.0]]]}
    assert diff_rows(golden, json.loads(json.dumps(golden))) == []
    moved = {"t": [["a", [1.0, float("nan")]], ["b", [2.5]]]}
    (line,) = diff_rows(golden, moved)
    assert line.startswith("t / b:") and "2.5" in line


def test_fast_set_matches_golden(request, monkeypatch):
    monkeypatch.delenv("PVM_SANITIZE", raising=False)
    check(FAST, request)


@pytest.mark.golden_full
def test_slow_set_matches_golden(request, monkeypatch):
    monkeypatch.delenv("PVM_SANITIZE", raising=False)
    check(SLOW, request, jobs=2)


@pytest.mark.golden_full
def test_fast_set_sanitized_matches_golden(request, monkeypatch):
    if request.config.getoption("--update-golden"):
        pytest.skip("the sanitized run only compares")
    monkeypatch.setenv("PVM_SANITIZE", "full")
    check(FAST, request)
