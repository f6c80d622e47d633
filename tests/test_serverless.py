"""Tests for the serverless cold-start workload (§4.4)."""

from repro import make_machine
from repro.workloads.serverless import (
    ColdStartReport,
    cold_start_latency,
    function_invocation,
)


class TestInvocation:
    def test_invocation_completes_cleanly(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        for _ in function_invocation(m, ctx, proc):
            pass
        # Teardown unmapped both regions.
        assert len(proc.addr_space) == 0
        assert ctx.clock.now > 1_500_000  # at least the body compute

    def test_runtime_image_shared_across_invocations(self):
        """The runtime image is page-cache-warm: the second container's
        init faults hit the same cached frames."""
        m = make_machine("pvm (NST)")
        times = []
        last_end = 0
        for _ in range(2):
            ctx = m.new_context()
            # Sequential invocations happen after one another in real
            # time; shared lock timelines require causal clock order.
            ctx.clock.advance_to(last_end)
            proc = m.spawn_process()
            gen = function_invocation(m, ctx, proc)
            t0 = ctx.clock.now
            next(gen)  # runtime init only
            times.append(ctx.clock.now - t0)
            for _ in gen:
                pass
            last_end = ctx.clock.now
        # Same kernel page cache: warm image, similar init time.
        assert times[1] <= times[0]


class TestColdStartLatency:
    def test_report_shape(self):
        r = cold_start_latency("pvm (NST)", invocations=4)
        assert isinstance(r, ColdStartReport)
        assert r.failed == 0
        assert 0 < r.p50_ms <= r.p99_ms

    def test_pvm_beats_hw_nesting_in_burst(self):
        pvm = cold_start_latency("pvm (NST)", invocations=16)
        kvm = cold_start_latency("kvm-ept (NST)", invocations=16)
        assert pvm.p50_ms < kvm.p50_ms
        # The tail is where nested startup serialization bites.
        assert pvm.p99_ms < 0.8 * kvm.p99_ms

    def test_capacity_failures_reported(self):
        from repro.containers.runtime import KVM_NST_CAPACITY

        r = cold_start_latency("kvm-ept (NST)",
                               invocations=KVM_NST_CAPACITY + 4)
        assert r.failed == 4
