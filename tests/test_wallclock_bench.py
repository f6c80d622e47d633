"""The simulator-throughput benchmark: baseline file contract (tier-1)
and the timing assertions (opt-in via ``-m wallclock_bench``)."""

import json

import pytest

from repro.bench import wallclock


class TestBaselineContract:
    def test_baseline_checked_in(self):
        """BENCH_walk.json must exist with the gated metrics present."""
        baseline = wallclock.load_baseline()
        assert baseline is not None, "BENCH_walk.json missing at repo root"
        results = baseline["results"]
        for metric in wallclock.GATED_METRICS:
            assert results.get(metric, 0) > 0
        assert results["speedup_vs_legacy"] >= 1.5

    def test_regression_gate_logic(self):
        baseline = {"results": {"speedup_vs_legacy": 1.8,
                                "warm_translations_per_sec": 1000.0,
                                "miss_walks_per_sec": 100.0,
                                "faults_per_sec": 10.0}}
        ok = {"speedup_vs_legacy": 1.6,          # -11%: within 20%
              "warm_translations_per_sec": 850.0,
              "miss_walks_per_sec": 70.0,        # -30%: inside the 50%
              "faults_per_sec": 10.0}            # absolute-noise band
        assert wallclock.check_regressions(ok, baseline) == []
        # Ratios carry the tight gate: a 25% speedup drop is a failure.
        bad_ratio = dict(ok, speedup_vs_legacy=1.35)
        failures = wallclock.check_regressions(bad_ratio, baseline)
        assert len(failures) == 1 and "speedup_vs_legacy" in failures[0]
        # Absolute rates fail only past the 2x-class threshold.
        bad_abs = dict(ok, miss_walks_per_sec=45.0)  # -55%
        failures = wallclock.check_regressions(bad_abs, baseline)
        assert len(failures) == 1 and "miss_walks_per_sec" in failures[0]

    def test_host_slow_waiver(self):
        """Absolute shortfalls are waived when the untouched legacy loop
        slowed past tolerance too (host load, not a code regression)."""
        baseline = {"results": {"legacy_translations_per_sec": 1000.0,
                                "faults_per_sec": 10.0}}
        slow_host = {"legacy_translations_per_sec": 400.0,
                     "faults_per_sec": 4.0}  # -60%, but so is legacy
        assert wallclock.check_regressions(slow_host, baseline) == []
        fast_host = {"legacy_translations_per_sec": 1100.0,
                     "faults_per_sec": 4.0}  # -60% with a healthy host
        failures = wallclock.check_regressions(fast_host, baseline)
        assert len(failures) == 1 and "faults_per_sec" in failures[0]

    def test_parallel_gate_waived_on_smaller_host(self):
        """A host with fewer workers than the baseline host cannot reach
        the recorded fan-out speedup; the gate must waive, not fail."""
        baseline = {"results": {"parallel_speedup": 3.0, "parallel_jobs": 4}}
        small_host = {"parallel_speedup": 1.0, "parallel_jobs": 1}
        assert wallclock.check_regressions(small_host, baseline) == []
        same_host_regressed = {"parallel_speedup": 1.5, "parallel_jobs": 4}
        failures = wallclock.check_regressions(same_host_regressed, baseline)
        assert len(failures) == 1 and "parallel_speedup" in failures[0]
        bigger_host = {"parallel_speedup": 2.9, "parallel_jobs": 8}
        assert wallclock.check_regressions(bigger_host, baseline) == []

    def test_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_walk.json"
        wallclock.write_baseline({"warm_translations_per_sec": 123.456}, path)
        loaded = json.loads(path.read_text())
        assert loaded["results"]["warm_translations_per_sec"] == 123.46
        assert wallclock.load_baseline(path) == loaded

    def test_summary_line_shape(self):
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "faults_per_sec": 1.2e4,
        })
        assert line.startswith("wallclock:") and "vs legacy" in line
        assert "fan-out" not in line  # phase absent: no fan-out segment
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "faults_per_sec": 1.2e4,
            "parallel_speedup": 2.5,
            "parallel_jobs": 4,
        })
        assert "fan-out 2.50x @4j" in line


@pytest.mark.wallclock_bench
class TestThroughput:
    """Wall-clock timing assertions — excluded from tier-1 (noisy on
    loaded CI machines); run with ``pytest -m wallclock_bench``."""

    def test_hot_path_speedup_over_legacy(self):
        """Acceptance: >= 1.5x translations/sec over the pre-PR TLB
        design, measured in the same run."""
        results = wallclock.bench_warm_translations(iters=120)
        assert results["speedup_vs_legacy"] >= 1.5

    def test_no_regression_vs_checked_in_baseline(self):
        # Full scale: smaller runs under-amortize setup and would
        # trip the gate against the full-scale baseline.
        results = wallclock.run_benchmarks(scale=1.0)
        baseline = wallclock.load_baseline()
        assert baseline is not None
        assert wallclock.check_regressions(results, baseline) == []

    def test_miss_phase_is_all_misses(self):
        results = wallclock.bench_miss_walks(iters=4)
        assert results["miss_tlb_hit_rate"] == 0
