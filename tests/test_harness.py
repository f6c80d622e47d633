"""Tests for the measurement harness (barrier semantics, scaling)."""

import pytest

from repro.bench.harness import (
    HOST_CORES,
    SCENARIOS_BM,
    SCENARIOS_EVAL,
    SCENARIOS_NST,
    measure_concurrent_op_ns,
    scaled_iterations,
)
from repro.workloads.lmbench import fork_proc, null_io


class TestScenarioLists:
    def test_eval_matrix_matches_paper(self):
        assert SCENARIOS_EVAL == (
            "kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)",
            "kvm-ept (NST)", "pvm (NST)",
        )

    def test_bm_nst_split(self):
        assert all("BM" in s for s in SCENARIOS_BM)
        assert all("NST" in s for s in SCENARIOS_NST)

    def test_host_cores_is_the_testbed(self):
        # Two 26-core Xeons with hyperthreading (§4).
        assert HOST_CORES == 104


class TestMeasurementBarrier:
    def test_setup_is_excluded_from_timing(self):
        """fork_proc prefaults 250 pages in setup; the measured per-op
        time must reflect only the fork loop."""
        ns = measure_concurrent_op_ns("pvm (NST)", fork_proc, n=1,
                                      iterations=4)
        # A fork costs ~hundreds of us; setup would add tens of ms.
        assert ns < 2_000_000

    def test_barrier_exposes_contention(self):
        """Without the start barrier, staggered setups would hide the
        nested L0 contention entirely (a measured regression we fixed).
        fork contention must be visible for nested kvm at n=8."""
        one = measure_concurrent_op_ns("kvm-ept (NST)", fork_proc, n=1,
                                       iterations=4)
        eight = measure_concurrent_op_ns("kvm-ept (NST)", fork_proc, n=8,
                                         iterations=4)
        assert eight > 2 * one

    def test_syscall_rows_contention_free(self):
        one = measure_concurrent_op_ns("pvm (NST)", null_io, n=1,
                                       iterations=20)
        eight = measure_concurrent_op_ns("pvm (NST)", null_io, n=8,
                                         iterations=20)
        assert abs(eight - one) < 0.05 * one + 1


class TestBrokenFactoryDetection:
    def test_setup_only_factory_raises(self):
        """A factory that exhausts itself during setup (before its first
        yield) is a broken workload, not a zero-latency one."""

        def setup_only(machine, ctx, proc):
            if False:
                yield  # pragma: no cover — makes this a generator

        with pytest.raises(ValueError, match="recorded no steps"):
            measure_concurrent_op_ns("pvm (NST)", setup_only, n=2)

    def test_single_yield_factory_still_measures(self):
        """One yield = setup ran, one measured (empty) step — legal."""

        def one_step(machine, ctx, proc):
            yield

        assert measure_concurrent_op_ns("pvm (NST)", one_step, n=1) == 0.0


class TestScaledIterations:
    def test_rounding(self):
        assert scaled_iterations(10, 0.5) == 5
        assert scaled_iterations(10, 0.04) == 1  # floor at minimum
        assert scaled_iterations(10, 0.0, minimum=3) == 3
