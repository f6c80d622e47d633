"""Parallel fan-out and result-cache tests.

``-m parallel_equiv`` selects the serial-vs-parallel bit-equivalence
targets (also part of the default tier-1 run): representative
experiments, with and without parameters, computed in-process and
across 2 worker processes must produce identical
``ExperimentResult.as_dict()`` output.
"""

import dataclasses
import json

import pytest

from repro.bench import cache as cache_mod
from repro.bench.cache import CacheStats, ResultCache, cost_model_fingerprint
from repro.bench.cli import main
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ExperimentSpec,
    chaos,
    fig4,
    fig13,
)
from repro.bench.parallel import (
    WorkUnit,
    _assemble,
    compute_unit,
    map_units,
    plan_units,
    run_experiment,
    run_experiments,
)
from repro.hw.costs import DEFAULT_COSTS

EQUIV_SCALE = 0.25
EQUIV_EXPERIMENTS = ("table1", "table2")


class TestSpecs:
    def test_every_experiment_has_a_spec(self):
        for exp_id, spec in ALL_EXPERIMENTS.items():
            assert isinstance(spec, ExperimentSpec) and spec.exp_id == exp_id

    def test_plan_enumerates_rows_in_paper_order(self):
        units = plan_units(["table2", "switchcost"], scale=1.0)
        assert [u.exp_id for u in units[:7]] == ["table2"] * 7
        assert [u.row_index for u in units[:7]] == list(range(7))
        assert units[7].exp_id == "switchcost" and units[7].row_index == 0
        assert units[0].row_key == "kvm-ept (BM)"

    def test_spec_rows_match_serial_functions(self):
        for exp_id in ("table1", "table2", "switchcost", "bootstorm"):
            serial = ALL_EXPERIMENTS[exp_id](scale=0.02)
            keys = ALL_EXPERIMENTS[exp_id].keys
            assert [label for label, _ in serial.rows] == list(keys)

    def test_compute_unit_returns_row_and_timing(self):
        unit = plan_units(["switchcost"], scale=0.02)[0]
        row, seconds = compute_unit(unit)
        assert row.label == "single-level hw switch"
        assert len(row.values) == 2 and seconds >= 0.0
        assert row.sanitize == (0, 0)

    def test_plan_fills_default_params(self):
        unit = plan_units(["fig4"], params={"fig4": {"procs": [1, 2]}})[0]
        assert unit.params == (("procs", (1, 2)),)
        assert plan_units(["fig4"])[0].params == (("procs", (1, 4, 16)),)
        assert plan_units(["table2"])[0].params == ()

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError):
            plan_units(["table2"], params={"table2": {"seed": 1}})


@pytest.mark.parallel_equiv
class TestParallelEquivalence:
    def test_parallel_equals_serial_bitwise(self):
        """The acceptance contract: fan-out across 2 processes is
        bit-identical to the in-process run."""
        for exp_id in EQUIV_EXPERIMENTS:
            serial = ALL_EXPERIMENTS[exp_id](scale=EQUIV_SCALE)
            par = run_experiment(exp_id, scale=EQUIV_SCALE, jobs=2)
            assert par.as_dict() == serial.as_dict()
            assert list(par.columns) == list(serial.columns)
            assert (par.title, par.unit, par.notes) == (
                serial.title, serial.unit, serial.notes)

    def test_merge_is_order_independent(self):
        """Assembly is a pure function of row data — feeding rows
        computed in reverse order yields the same result."""
        units = plan_units(["table2"], scale=0.02)
        rows = {}
        for unit in reversed(units):
            row, _ = compute_unit(unit)
            rows[(unit.exp_id, unit.row_index)] = row
        merged = _assemble(["table2"], 0.02, rows)["table2"]
        serial = ALL_EXPERIMENTS["table2"](scale=0.02)
        assert merged.as_dict() == serial.as_dict()

    def test_fig13_finalize_normalizes_to_base_row(self):
        r = fig13.header(1.0)
        n = len(r.columns)
        r.add("kvm-ept (BM)", [2.0] * n)
        r.add("pvm (NST)", [4.0] * n)
        fig13.finalize(r)
        d = r.as_dict()
        assert all(v == 1.0 for v in d["kvm-ept (BM)"].values())
        assert all(v == 0.5 for v in d["pvm (NST)"].values())

    def test_map_units_preserves_order_across_processes(self):
        units = plan_units(["table2"], scale=0.02)
        fanned = map_units(compute_unit, units, jobs=2)
        assert [row.label for row, _ in fanned] == [u.row_key for u in units]

    def test_params_ride_the_work_unit(self):
        """Parameterized and re-seeded runs fan out bit-identically."""
        for spec, scale, params in ((fig4, 0.05, {"procs": (1, 2)}),
                                    (chaos, 0.3, {"seed": 77})):
            serial = spec(scale=scale, **params)
            par = run_experiment(spec.exp_id, scale=scale, jobs=2,
                                 params=params)
            assert par.as_dict() == serial.as_dict()
            assert list(par.columns) == list(serial.columns)
            assert (par.title, par.unit, par.notes) == (
                serial.title, serial.unit, serial.notes)


class TestResultCache:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cold = ResultCache(tmp_path)
        r1 = run_experiment("table2", scale=0.05, cache=cold)
        assert cold.stats.misses == len(r1.rows) and cold.stats.hits == 0
        warm = ResultCache(tmp_path)
        r2 = run_experiment("table2", scale=0.05, cache=warm)
        assert warm.stats.hits == len(r1.rows) and warm.stats.misses == 0
        assert warm.stats.hit_rate == 1.0
        assert r2.as_dict() == r1.as_dict()

    def test_key_covers_unit_identity_and_scale(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = WorkUnit("table2", 0, "kvm-ept (BM)", 0.05)
        keys = {
            cache.key_for(unit),
            cache.key_for(dataclasses.replace(unit, scale=0.1)),
            cache.key_for(dataclasses.replace(unit, row_index=1)),
            cache.key_for(dataclasses.replace(unit, row_key="renamed")),
            cache.key_for(dataclasses.replace(unit, exp_id="table1")),
            cache.key_for(dataclasses.replace(unit, params=(("x", 1),))),
        }
        assert len(keys) == 6

    def test_seeds_never_share_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = {seed: {cache.key_for(u) for u in plan_units(
                    ["chaos"], 0.05, {"chaos": {"seed": seed}})}
                for seed in (77, 78)}
        assert not keys[77] & keys[78]
        r77 = run_experiment("chaos", 0.05, cache=cache, params={"seed": 77})
        run_experiment("chaos", 0.05, cache=cache, params={"seed": 78})
        assert cache.stats.hits == 0 and cache.stats.misses == 8
        warm = ResultCache(tmp_path)
        again = run_experiment("chaos", 0.05, cache=warm, params={"seed": 77})
        assert warm.stats.hits == 4 and warm.stats.misses == 0
        assert again.as_dict() == r77.as_dict()

    def test_source_tree_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        run_experiment("table2", scale=0.05, cache=cache)
        monkeypatch.setattr(
            cache_mod, "source_tree_fingerprint", lambda root=None: "changed"
        )
        stale = ResultCache(tmp_path)
        r = run_experiment("table2", scale=0.05, cache=stale)
        assert stale.stats.hits == 0 and stale.stats.misses == len(r.rows)

    def test_cost_model_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        run_experiment("table2", scale=0.05, cache=cache)
        recal = DEFAULT_COSTS.with_overrides(tlb_hit=2)
        monkeypatch.setattr(
            cache_mod, "cost_model_fingerprint",
            lambda costs=recal: cost_model_fingerprint(recal),
        )
        stale = ResultCache(tmp_path)
        r = run_experiment("table2", scale=0.05, cache=stale)
        assert stale.stats.hits == 0 and stale.stats.misses == len(r.rows)

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = plan_units(["switchcost"], scale=0.02)[0]
        row, _ = compute_unit(unit)
        label, values = row.label, row.values
        cache.put(unit, (label, values))
        cache._path(cache.key_for(unit)).write_text("not json{")
        fresh = ResultCache(tmp_path)
        assert fresh.get(unit) is None
        fresh.put(unit, (label, values))
        assert ResultCache(tmp_path).get(unit) == (label, list(values))

    def test_stats_dataclass(self):
        s = CacheStats()
        assert s.hit_rate == 0.0
        s.hits, s.misses = 3, 1
        assert s.hit_rate == 0.75


class TestRunExperiments:
    def test_multi_experiment_fanout_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        results, stats = run_experiments(
            ["switchcost", "bootstorm"], scale=0.02, jobs=2, cache=cache
        )
        assert set(results) == {"switchcost", "bootstorm"}
        assert stats.units == 5 and stats.computed == 5
        assert stats.cache_hits == 0 and stats.jobs == 2
        _, warm_stats = run_experiments(
            ["switchcost", "bootstorm"], scale=0.02, jobs=2,
            cache=ResultCache(tmp_path),
        )
        assert warm_stats.cache_hits == 5 and warm_stats.computed == 0

    def test_duplicate_ids_deduped(self):
        results, stats = run_experiments(["table2", "table2"], scale=0.02)
        assert set(results) == {"table2"} and stats.units == 7


class TestCliFlags:
    def test_cache_stats_line_cold_then_warm(self, tmp_path, capsys):
        argv = ["table2", "--scale", "0.02", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "7 misses" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "7 hits, 0 misses (100% hit rate)" in out

    def test_no_cache_flag(self, capsys):
        assert main(["table2", "--scale", "0.02", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache: off" in out and "wall" in out

    def test_jobs_flag_with_json_run_metadata(self, tmp_path, capsys):
        assert main(["table2", "--scale", "0.02", "--jobs", "2",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["_run"]["jobs"] == 2
        assert payload["_run"]["cache_misses"] == 7
        assert payload["table2"]["data"]["pvm (BM) direct-switch"]["kpti"] > 0

    def test_fault_seed_rows_equal_the_seeded_spec(self, tmp_path, capsys):
        argv = ["chaos", "--fault-seed", "77", "--scale", "0.05", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chaos"]["data"] == chaos(scale=0.05, seed=77).as_dict()
        assert payload["_run"]["cache_misses"] == 4
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["_run"]["cache_hits"] == 4
