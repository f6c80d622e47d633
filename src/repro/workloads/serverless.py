"""Serverless function invocations (§4.4's production workload).

Alibaba runs "user-defined serverless functions" in PVM secure
containers.  A cold invocation is: container boot + runtime init
(faulting in the language runtime's image) + the function body (short
compute + a little I/O) + teardown.  End-to-end latency is dominated by
the platform's fault and startup machinery, which is exactly what
differs across deployment scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.containers.runtime import RunDRuntime, RuntimeError_
from repro.guest.process import Process
from repro.hw.types import KIB
from repro.hypervisors.base import CpuCtx, Machine
from repro.sim.engine import Engine, SimTask
from repro.workloads.ops import gen_stepper


def function_invocation(
    machine: Machine,
    ctx: CpuCtx,
    proc: Process,
    runtime_image_kb: int = 512,
    body_compute_ns: int = 1_500_000,
    body_allocs_kb: int = 256,
) -> Generator[None, None, None]:
    """One cold function invocation inside an already-booted container."""
    # Runtime init: fault in the language runtime's (page-cache-warm) image.
    image = machine.mmap(ctx, proc, runtime_image_kb * KIB, writable=False,
                         kind="file", file_key="fn-runtime")
    for vpn in range(image.start_vpn, image.end_vpn):
        machine.touch(ctx, proc, vpn, write=False)
    yield
    # Handler body: compute, scratch allocations, a response write.
    scratch = machine.mmap(ctx, proc, body_allocs_kb * KIB)
    for vpn in range(scratch.start_vpn, scratch.end_vpn):
        machine.touch(ctx, proc, vpn, write=True)
    machine.compute(ctx, body_compute_ns)
    machine.syscall(ctx, proc, "write")
    machine.net_send(ctx, proc, 2 * 1500)
    yield
    machine.munmap(ctx, proc, scratch)
    machine.munmap(ctx, proc, image)


@dataclass(frozen=True)
class ColdStartReport:
    """Latency summary of a cold-start invocation burst."""
    scenario: str
    invocations: int
    p50_ms: float
    p99_ms: float
    failed: int = 0


def cold_start_latency(
    scenario: str,
    invocations: int = 32,
    **params,
) -> ColdStartReport:
    """End-to-end cold-start latency for a burst of invocations.

    Each invocation boots its own secure container (the serverless
    model); the burst shares the host, so per-scenario startup
    serialization and L0 contention shape the tail.
    """
    runtime = RunDRuntime(scenario)
    engine = Engine()
    containers = []
    failed = 0
    for _ in range(invocations):
        try:
            c = runtime.launch()
        except RuntimeError_:
            failed += 1
            continue
        containers.append(c)
        engine.add(SimTask(
            name=c.container_id, clock=c.ctx.clock,
            stepper=gen_stepper(c.run(function_invocation, **params)),
        ))
    engine.run()
    latencies: List[float] = sorted(
        c.ctx.clock.now / 1e6 for c in containers
    )
    if not latencies:
        return ColdStartReport(scenario, invocations, float("nan"),
                               float("nan"), failed)
    return ColdStartReport(
        scenario=scenario,
        invocations=invocations,
        p50_ms=latencies[len(latencies) // 2],
        p99_ms=latencies[min(len(latencies) - 1,
                             int(len(latencies) * 0.99))],
        failed=failed,
    )
