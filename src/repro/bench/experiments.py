"""Regeneration of every table and figure in the paper.

Each public function returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows/columns
mirror the paper's layout.  Absolute values are simulated nanoseconds
(or derived units); the claims to check are the *shapes*: who wins, by
what factor, where crossovers fall.  See EXPERIMENTS.md for the
paper-vs-measured record.

Every experiment is described twice over the same code:

* a public callable (``table1(scale)``, ``fig10(scale, procs)``, ...)
  kept for direct use and ad-hoc parameterization, and
* an :class:`ExperimentSpec` in :data:`EXPERIMENT_SPECS` that exposes
  the experiment as independent *row work units* for
  :mod:`repro.bench.parallel` — each row is a pure function of
  ``(experiment, row key, scale)`` over freshly-built machines, so rows
  can be computed in any order, in any process, and merged back
  deterministically.

The public callables are themselves assembled from the specs, which is
what makes the parallel output bit-identical to the serial output by
construction rather than by luck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import make_machine
from repro.bench.harness import (
    HOST_CORES,
    SCENARIOS_EVAL,
    ExperimentResult,
    measure_concurrent_op_ns,
    scaled_iterations,
)
from repro.containers.runtime import KVM_NST_CAPACITY, RunDRuntime, RuntimeError_
from repro.faults import (
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_L0_STALL,
    SITE_MEMORY_PRESSURE,
    FaultPlan,
)
from repro.hw.types import MIB
from repro.hypervisors.base import MachineConfig
from repro.memory.qos import MemoryQosConfig
from repro.workloads import cloudsuite as cs
from repro.workloads import lmbench
from repro.workloads.apps import APPS
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import run_concurrent


RowData = Tuple[str, List[float]]


@dataclass(frozen=True)
class ExperimentSpec:
    """A shardable description of one table/figure.

    ``row_keys(scale)`` enumerates the independent work units in paper
    order; ``compute_row(key, scale)`` regenerates exactly one row and
    must be a module-level callable (work units cross process
    boundaries, so everything here has to pickle by reference);
    ``finalize`` runs once over the merged result for the rare
    cross-row post-processing (fig13's normalization to the first row).
    """

    exp_id: str
    header: Callable[[float], ExperimentResult]
    row_keys: Callable[[float], Tuple[str, ...]]
    compute_row: Callable[[str, float], RowData]
    finalize: Optional[Callable[[ExperimentResult], None]] = None

    def run_serial(self, scale: float = 1.0) -> ExperimentResult:
        """Compute every row in paper order, in this process."""
        result = self.header(scale)
        for key in self.row_keys(scale):
            result.add(*self.compute_row(key, scale))
        if self.finalize is not None:
            self.finalize(result)
        return result


# ---------------------------------------------------------------------------
# Micro-benchmarks (§4.1)
# ---------------------------------------------------------------------------

_TABLE1_OPS = ("Hypercall", "Exception", "MSR access", "CPUID", "PIO")
_TABLE1_METHODS = {
    "Hypercall": "hypercall", "Exception": "exception",
    "MSR access": "msr_access", "CPUID": "cpuid", "PIO": "pio",
}
_TABLE1_CONFIGS = ("kvm (BM)", "pvm (BM)", "kvm (NST)", "pvm (NST)")
_TABLE1_SCEN = {
    "kvm (BM)": "kvm-ept (BM)", "pvm (BM)": "pvm (BM)",
    "kvm (NST)": "kvm-ept (NST)", "pvm (NST)": "pvm (NST)",
}


def _table1_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="table1",
        title="Average round-trip latency (us) of VM exits/entries, "
              "KPTI enabled/disabled",
        columns=[f"{c} ({k})" for c in _TABLE1_CONFIGS
                 for k in ("kpti", "nokpti")],
        unit="us",
    )


def _table1_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return _TABLE1_OPS


def _table1_row(op: str, scale: float = 1.0) -> RowData:
    iters = scaled_iterations(500, scale)
    values = []
    for config in _TABLE1_CONFIGS:
        for kpti in (True, False):
            m = make_machine(_TABLE1_SCEN[config], config=MachineConfig(kpti=kpti))
            ctx = m.new_context()
            start = ctx.clock.now
            for _ in range(iters):
                getattr(m, _TABLE1_METHODS[op])(ctx)
            values.append((ctx.clock.now - start) / iters / 1000)
    return op, values


def table1(scale: float = 1.0) -> ExperimentResult:
    """Table 1: VM exit/entry round-trip latency (us), KPTI on/off."""
    return EXPERIMENT_SPECS["table1"].run_serial(scale)


#: Table 2 rows: label -> (scenario, MachineConfig overrides).
_TABLE2_ROWS: Dict[str, Tuple[str, Dict[str, bool]]] = {
    "kvm-ept (BM)": ("kvm-ept (BM)", {}),
    "kvm-spt (BM)": ("kvm-spt (BM)", {}),
    "pvm (BM) none": ("pvm (BM)", {"direct_switch": False}),
    "pvm (BM) direct-switch": ("pvm (BM)", {"direct_switch": True}),
    "kvm (NST)": ("kvm-ept (NST)", {}),
    "pvm (NST) none": ("pvm (NST)", {"direct_switch": False}),
    "pvm (NST) direct-switch": ("pvm (NST)", {"direct_switch": True}),
}


def _table2_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="table2",
        title="Execution time (us) of syscall get_pid, KPTI on/off",
        columns=["kpti", "nokpti"],
        unit="us",
    )


def _table2_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return tuple(_TABLE2_ROWS)


def _table2_row(label: str, scale: float = 1.0) -> RowData:
    scenario, overrides = _TABLE2_ROWS[label]
    iters = scaled_iterations(500, scale)
    values = []
    for kpti in (True, False):
        m = make_machine(scenario, config=MachineConfig(kpti=kpti, **overrides))
        ctx = m.new_context()
        proc = m.spawn_process()
        start = ctx.clock.now
        for _ in range(iters):
            m.syscall(ctx, proc, "get_pid")
        values.append((ctx.clock.now - start) / iters / 1000)
    return label, values


def table2(scale: float = 1.0) -> ExperimentResult:
    """Table 2: get_pid syscall time (us) with/without direct switch."""
    return EXPERIMENT_SPECS["table2"].run_serial(scale)


# ---------------------------------------------------------------------------
# Motivation experiments (§2)
# ---------------------------------------------------------------------------

#: Fig 2's LMbench subset (single container each): label -> suite bench.
_FIG2_LMBENCH = {
    "null call": "null I/O",
    "stat": "stat",
    "open/close": "open/close",
    "slct tcp": "slct TCP",
    "sig inst": "sig inst",
    "sig hndl": "sig hndl",
    "fork": "fork proc",
    "exec": "exec proc",
    "sh": "sh proc",
}

#: Fig 2's application rows: label -> APPS key (16 containers each, §2.1).
_FIG2_APPS = {"kbuild": "kbuild", "specjbb": "specjbb2005"}


def _fig2_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="fig2",
        title="Overhead analysis of nested virtualization "
              "(normalized exec time; KVM = 1.0)",
        columns=["KVM", "KVM (NST)"],
        unit="x",
    )


def _fig2_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return tuple(_FIG2_LMBENCH) + tuple(_FIG2_APPS)


def _fig2_row(label: str, scale: float = 1.0) -> RowData:
    if label in _FIG2_LMBENCH:
        factory = lmbench.PROCESS_SUITE[_FIG2_LMBENCH[label]]
        base = measure_concurrent_op_ns("kvm-ept (BM)", factory, n=1)
        nst = measure_concurrent_op_ns("kvm-ept (NST)", factory, n=1)
    else:
        app = APPS[_FIG2_APPS[label]]
        base = RunDRuntime("kvm-ept (BM)").run_fleet(16, app).mean_completion_ns
        nst = RunDRuntime("kvm-ept (NST)").run_fleet(16, app).mean_completion_ns
    return label, [1.0, nst / base if base else 0.0]


def fig2(scale: float = 1.0) -> ExperimentResult:
    """Figure 2: overhead of nested virtualization (KVM vs KVM NST),
    normalized to single-level KVM."""
    return EXPERIMENT_SPECS["fig2"].run_serial(scale)


_FIG4_ROWS = {
    "EPT": "kvm-ept (BM)",
    "SPT": "kvm-spt (BM)",
    "EPT-EPT": "kvm-ept (NST)",
    "SPT-EPT": "kvm-spt (NST)",
}
_FIG4_PROCS = (1, 4, 16)


def _fig4_header(scale: float = 1.0,
                 procs: Sequence[int] = _FIG4_PROCS) -> ExperimentResult:
    total = int(4 * MIB * scale)
    extrapolate = (4096 * MIB) / total
    return ExperimentResult(
        exp_id="fig4",
        title="Execution time (s) of the cumulative alloc/touch "
              "micro-benchmark (no release)",
        columns=[str(p) for p in procs],
        unit="s (extrapolated to the paper's 4 GiB working set)",
        notes=f"measured at {total >> 20} MiB/process, reported x"
              f"{extrapolate:.0f} (virtual time is linear in fault count)",
    )


def _fig4_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return tuple(_FIG4_ROWS)


def _fig4_row(label: str, scale: float = 1.0,
              procs: Sequence[int] = _FIG4_PROCS) -> RowData:
    scenario = _FIG4_ROWS[label]
    total = int(4 * MIB * scale)
    extrapolate = (4096 * MIB) / total
    values = []
    for n in procs:
        machine = make_machine(scenario)
        r = run_concurrent(
            [machine] * n, memalloc, total_bytes=total, release=False
        )
        values.append(r.makespan_ns / 1e9 * extrapolate)
    return label, values


def fig4(scale: float = 1.0,
         procs: Sequence[int] = _FIG4_PROCS) -> ExperimentResult:
    """Figure 4: EPT vs SPT vs EPT-EPT vs SPT-EPT, cumulative-allocation
    micro-benchmark, 1..16 processes in one guest."""
    if tuple(procs) == _FIG4_PROCS:
        return EXPERIMENT_SPECS["fig4"].run_serial(scale)
    result = _fig4_header(scale, procs)
    for label in _FIG4_ROWS:
        result.add(*_fig4_row(label, scale, procs))
    return result


# ---------------------------------------------------------------------------
# Page-fault handling (§4.1, Figure 10)
# ---------------------------------------------------------------------------

#: Figure 10 variant set: full PVM plus one-optimization-removed runs.
FIG10_VARIANTS = [
    ("kvm-ept (BM)", "kvm-ept (BM)", {}),
    ("kvm-spt (BM)", "kvm-spt (BM)", {}),
    ("pvm (BM)", "pvm (BM)", {}),
    ("kvm-ept (NST)", "kvm-ept (NST)", {}),
    ("pvm (NST)", "pvm (NST)", {}),
    ("pvm (NST-prefault)", "pvm (NST)", {"prefault": False}),
    ("pvm (NST-pcid)", "pvm (NST)", {"pcid_mapping": False}),
    ("pvm (NST-lock)", "pvm (NST)", {"fine_grained_locks": False}),
]
_FIG10_BY_LABEL = {label: (scenario, overrides)
                   for label, scenario, overrides in FIG10_VARIANTS}
_FIG10_PROCS = (1, 2, 4, 8, 16, 32)


def _fig10_header(scale: float = 1.0,
                  procs: Sequence[int] = _FIG10_PROCS) -> ExperimentResult:
    total = int(2 * MIB * scale)
    extrapolate = (4096 * MIB) / total
    return ExperimentResult(
        exp_id="fig10",
        title="Execution time (s) of the alloc/release/touch "
              "micro-benchmark (guest page-fault handling)",
        columns=[str(p) for p in procs],
        unit="s (extrapolated to the paper's 4 GiB working set)",
        notes=f"measured at {total >> 20} MiB/process, reported x"
              f"{extrapolate:.0f}. pvm (NST-x) disables optimization x.",
    )


def _fig10_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return tuple(label for label, _, _ in FIG10_VARIANTS)


def _fig10_row(label: str, scale: float = 1.0,
               procs: Sequence[int] = _FIG10_PROCS) -> RowData:
    scenario, overrides = _FIG10_BY_LABEL[label]
    total = int(2 * MIB * scale)
    extrapolate = (4096 * MIB) / total
    values = []
    for n in procs:
        machine = make_machine(scenario, config=MachineConfig(**overrides))
        r = run_concurrent(
            [machine] * n, memalloc, total_bytes=total, release=True
        )
        values.append(r.makespan_ns / 1e9 * extrapolate)
    return label, values


def fig10(scale: float = 1.0,
          procs: Sequence[int] = _FIG10_PROCS) -> ExperimentResult:
    """Figure 10: guest page-fault handling, alloc/release variant,
    1..32 processes, including the optimization ablations."""
    if tuple(procs) == _FIG10_PROCS:
        return EXPERIMENT_SPECS["fig10"].run_serial(scale)
    result = _fig10_header(scale, procs)
    for label, _, _ in FIG10_VARIANTS:
        result.add(*_fig10_row(label, scale, procs))
    return result


# ---------------------------------------------------------------------------
# LMbench suites (§4.2, Tables 3 and 4)
# ---------------------------------------------------------------------------

_TABLE3_CONCURRENCY = (1, 32)


def _table3_header(scale: float = 1.0,
                   concurrency: Sequence[int] = _TABLE3_CONCURRENCY,
                   ) -> ExperimentResult:
    return ExperimentResult(
        exp_id="table3",
        title="LMbench: processes — time in us (smaller is better)",
        columns=[
            f"{bench} #{n}"
            for bench in lmbench.PROCESS_SUITE
            for n in concurrency
        ],
        unit="us",
    )


def _scenario_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return tuple(SCENARIOS_EVAL)


def _table3_row(scenario: str, scale: float = 1.0,
                concurrency: Sequence[int] = _TABLE3_CONCURRENCY) -> RowData:
    values = []
    for bench, factory in lmbench.PROCESS_SUITE.items():
        for n in concurrency:
            ns = measure_concurrent_op_ns(scenario, factory, n=n)
            values.append(ns / 1000)
    return scenario, values


def table3(scale: float = 1.0,
           concurrency: Sequence[int] = _TABLE3_CONCURRENCY) -> ExperimentResult:
    """Table 3: LMbench process suite (us), 1 and 32 processes."""
    if tuple(concurrency) == _TABLE3_CONCURRENCY:
        return EXPERIMENT_SPECS["table3"].run_serial(scale)
    result = _table3_header(scale, concurrency)
    for scenario in SCENARIOS_EVAL:
        result.add(*_table3_row(scenario, scale, concurrency))
    return result


def _table4_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="table4",
        title="File & VM system latencies in us (smaller is better)",
        columns=list(lmbench.FILE_VM_SUITE),
        unit="us",
    )


def _table4_row(scenario: str, scale: float = 1.0) -> RowData:
    per_page_rows = {"Mmap", "Page Fault"}
    values = []
    for bench, factory in lmbench.FILE_VM_SUITE.items():
        m = make_machine(scenario)
        ns = lmbench.measure_mean_op_ns(
            m, factory, per_page=bench in per_page_rows
        )
        values.append(ns / 1000)
    return scenario, values


def table4(scale: float = 1.0) -> ExperimentResult:
    """Table 4: file & VM system latencies (us)."""
    return EXPERIMENT_SPECS["table4"].run_serial(scale)


# ---------------------------------------------------------------------------
# Real applications (§4.3, Figures 11-13)
# ---------------------------------------------------------------------------

_FIG11_CONCURRENCY = (1, 4, 16)


def _fig11_header(scale: float = 1.0,
                  concurrency: Sequence[int] = _FIG11_CONCURRENCY,
                  apps: Optional[Sequence[str]] = None) -> ExperimentResult:
    apps = list(apps or APPS)
    return ExperimentResult(
        exp_id="fig11",
        title="Real-world applications under concurrency "
              "(kbuild/fluidanimate: s, lower better; "
              "blogbench/specjbb2005: score, higher better)",
        columns=[f"{app} @{n}" for app in apps for n in concurrency],
    )


def _fig11_row(scenario: str, scale: float = 1.0,
               concurrency: Sequence[int] = _FIG11_CONCURRENCY,
               apps: Optional[Sequence[str]] = None) -> RowData:
    apps = list(apps or APPS)
    throughput_apps = {"blogbench", "specjbb2005"}
    values = []
    for app in apps:
        for n in concurrency:
            r = RunDRuntime(scenario).run_fleet(n, APPS[app])
            seconds = r.mean_completion_s
            if app in throughput_apps:
                # Rate score: work units per second (scaled).
                values.append(1000.0 / seconds if seconds else 0.0)
            else:
                values.append(seconds)
    return scenario, values


def fig11(scale: float = 1.0,
          concurrency: Sequence[int] = _FIG11_CONCURRENCY,
          apps: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 11: four applications x five scenarios x concurrency.

    kbuild/fluidanimate report seconds (lower better); blogbench and
    specjbb2005 report rate scores (higher better).
    """
    if tuple(concurrency) == _FIG11_CONCURRENCY and apps is None:
        return EXPERIMENT_SPECS["fig11"].run_serial(scale)
    result = _fig11_header(scale, concurrency, apps)
    for scenario in SCENARIOS_EVAL:
        result.add(*_fig11_row(scenario, scale, concurrency, apps))
    return result


_FIG12_DENSITY = (50, 100, 150)
_FIG12_FRAMES = 24


def _fig12_header(scale: float = 1.0,
                  density: Sequence[int] = _FIG12_DENSITY) -> ExperimentResult:
    return ExperimentResult(
        exp_id="fig12",
        title="fluidanimate under high load (average exec time, s); "
              "NaN marks the kvm-ept (NST) runtime-connection failure",
        columns=[str(d) for d in density],
        unit="s",
        notes=f"host capacity {HOST_CORES} hardware threads; "
              f"kvm-ept NST capacity {KVM_NST_CAPACITY} containers",
    )


def _fig12_row(scenario: str, scale: float = 1.0,
               density: Sequence[int] = _FIG12_DENSITY,
               frames: int = _FIG12_FRAMES) -> RowData:
    from repro.sim.cpupool import CpuPool

    values = []
    for n in density:
        runtime = RunDRuntime(scenario)
        try:
            r = runtime.run_fleet(
                n, APPS["fluidanimate"], frames=frames,
                cpu_pool=CpuPool(HOST_CORES),
            )
        except RuntimeError_:
            values.append(float("nan"))
            continue
        values.append(r.mean_completion_s)
    return scenario, values


def fig12(scale: float = 1.0,
          density: Sequence[int] = _FIG12_DENSITY,
          frames: int = _FIG12_FRAMES) -> ExperimentResult:
    """Figure 12: fluidanimate at high container density.

    Hosts are CPU-oversubscribed past HOST_CORES containers, so all
    surviving approaches converge; kvm-ept (NST) fails to launch past
    the runtime's nested capacity (the paper's crash at 150).
    """
    if tuple(density) == _FIG12_DENSITY and frames == _FIG12_FRAMES:
        return EXPERIMENT_SPECS["fig12"].run_serial(scale)
    result = _fig12_header(scale, density)
    for scenario in SCENARIOS_EVAL:
        result.add(*_fig12_row(scenario, scale, density, frames))
    return result


def _fig13_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="fig13",
        title="Cloud benchmarks: performance normalized to kvm-ept (BM)",
        columns=list(cs.CLOUDSUITE),
        unit="x",
    )


def _fig13_row(scenario: str, scale: float = 1.0) -> RowData:
    """Raw seconds per CloudSuite bench — normalization happens in
    :func:`_fig13_finalize` so rows stay independent work units."""
    values = []
    for name, factory in cs.CLOUDSUITE.items():
        machine = make_machine(scenario)
        r = run_concurrent([machine], factory)
        values.append(r.makespan_ns / 1e9)
    return scenario, values


def _fig13_finalize(result: ExperimentResult) -> None:
    """Normalize every row to the kvm-ept (BM) baseline row (higher is
    better), replacing raw seconds in place."""
    base = dict(result.rows)["kvm-ept (BM)"]
    result.rows[:] = [
        (label, [b / v if v else 0.0 for b, v in zip(base, values)])
        for label, values in result.rows
    ]


def fig13(scale: float = 1.0) -> ExperimentResult:
    """Figure 13: CloudSuite analytics, normalized to kvm-ept (BM)
    (higher is better)."""
    return EXPERIMENT_SPECS["fig13"].run_serial(scale)


# ---------------------------------------------------------------------------
# §2.2 / §4.4 measurements
# ---------------------------------------------------------------------------

_SWITCHCOST_ROWS = ("single-level hw switch", "nested L2->L1 switch",
                    "pvm switch")


def _switchcost_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="switchcost",
        title="World-switch cost (us, one direction) — §2.2 measurements",
        columns=["measured", "paper"],
        unit="us",
    )


def _switchcost_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return _SWITCHCOST_ROWS


def _switchcost_row(label: str, scale: float = 1.0) -> RowData:
    from repro.core.switcher import GuestWorld

    iters = scaled_iterations(1000, scale)
    if label == "single-level hw switch":
        # Half a hardware hypercall round trip minus handler.
        m = make_machine("kvm-ept (BM)")
        ctx = m.new_context()
        t0 = ctx.clock.now
        for _ in range(iters):
            m.hypercall(ctx)
        hw = ((ctx.clock.now - t0) / iters - m.costs.hypercall_handler) / 2
        return label, [hw / 1000, 0.105]
    if label == "nested L2->L1 switch":
        # An L2->L1 delivery leg (exit + forward + entry), timed alone;
        # L1 re-enters L2 outside the timed leg so every exit is legal.
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        spent = 0
        for _ in range(iters):
            t0 = ctx.clock.now
            m.l2_exit_to_l1(ctx, "probe")
            spent += ctx.clock.now - t0
            m.l1_resume_l2(ctx)
        return label, [spent / iters / 1000, 1.3]
    # One PVM switcher leg.
    m = make_machine("pvm (NST)")
    ctx = m.new_context()
    t0 = ctx.clock.now
    for _ in range(iters):
        m.hv.switcher.vm_exit(ctx.clock, ctx.cpu_id, "probe")
        m.hv.switcher.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
    return label, [(ctx.clock.now - t0) / iters / 2 / 1000, 0.179]


def switchcost(scale: float = 1.0) -> ExperimentResult:
    """§2.2's world-switch cost measurements (not a numbered figure):

    * single-level hardware switch: 0.105 us,
    * nested L2->L1 switch (via L0): 1.3 us,
    * PVM software switch in the switcher: 0.179 us.

    Measured by timing the one-way legs of each machine's exit
    machinery over many iterations.
    """
    return EXPERIMENT_SPECS["switchcost"].run_serial(scale)


_BOOTSTORM_ROWS = ("pvm (NST)", "kvm-ept (NST)")
_BOOTSTORM_DENSITIES = (1, 50, 100)


def _bootstorm_header(scale: float = 1.0,
                      densities: Sequence[int] = _BOOTSTORM_DENSITIES,
                      ) -> ExperimentResult:
    return ExperimentResult(
        exp_id="bootstorm",
        title="Concurrent container-start latency (ms): median / worst",
        columns=[f"p50 @{d}" for d in densities]
                + [f"max @{d}" for d in densities],
        unit="ms",
    )


def _bootstorm_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return _BOOTSTORM_ROWS


def _bootstorm_row(scenario: str, scale: float = 1.0,
                   densities: Sequence[int] = _BOOTSTORM_DENSITIES) -> RowData:
    p50s, maxs = [], []
    for n in densities:
        runtime = RunDRuntime(scenario)
        try:
            fleet = runtime.launch_fleet(n)
        except RuntimeError_:
            p50s.append(float("nan"))
            maxs.append(float("nan"))
            continue
        boots = sorted(c.ctx.clock.now / 1e6 for c in fleet)
        p50s.append(boots[len(boots) // 2])
        maxs.append(boots[-1])
    return scenario, p50s + maxs


def bootstorm(scale: float = 1.0,
              densities: Sequence[int] = _BOOTSTORM_DENSITIES,
              ) -> ExperimentResult:
    """Boot storm (§4.4): p50/p100 container-start latency when N secure
    containers launch concurrently.

    PVM creates L2 guests entirely inside L1; hardware-assisted nesting
    serializes per-guest VMCS02/shadow-EPT setup on the host.
    """
    if tuple(densities) == _BOOTSTORM_DENSITIES:
        return EXPERIMENT_SPECS["bootstorm"].run_serial(scale)
    result = _bootstorm_header(scale, densities)
    for scenario in _BOOTSTORM_ROWS:
        result.add(*_bootstorm_row(scenario, scale, densities))
    return result


# ---------------------------------------------------------------------------
# Chaos / availability (robustness extension; not a paper figure)
# ---------------------------------------------------------------------------

#: Seed of the canonical chaos run.  Rows are pure functions of
#: ``(scenario, scale)`` at this seed, which is what lets chaos ride the
#: parallel fan-out and the result cache like every paper experiment.
#: ``chaos(scale, seed=...)`` / ``--fault-seed`` bypass both.
CHAOS_DEFAULT_SEED = 1337
_CHAOS_ROWS = ("pvm (NST)", "kvm-ept (NST)", "pvm (BM)", "kvm-ept (BM)")
_CHAOS_FLEET = 16


def _chaos_plan(seed: int) -> FaultPlan:
    """The canonical chaos fault mix: flaky boots, occasional guest
    panics mid-workload, and a noisy neighbor stalling the host's L0
    service."""
    plan = FaultPlan(seed=seed)
    plan.add(SITE_CONTAINER_BOOT, probability=0.10)
    plan.add(SITE_GUEST_PANIC, probability=0.004)
    plan.add(SITE_L0_STALL, probability=0.05, stall_ns=500_000)
    return plan


def _chaos_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="chaos",
        title=f"Fleet availability under injected faults "
              f"({_CHAOS_FLEET} containers, blogbench)",
        columns=["availability", "mttr ms", "restarts", "crashes",
                 "boot retries", "makespan ms"],
        unit="mixed",
    )


def _chaos_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return _CHAOS_ROWS


def _chaos_run(scenario: str, scale: float, seed: int,
               sanitize: bool) -> Tuple[RowData, int, int]:
    """One chaos fleet run; returns (row, sanitize checks, violations).

    The row values are independent of ``sanitize``: sanitizer checks
    run outside virtual time, so the sanitized fleet produces the same
    availability/MTTR/makespan bits as the plain one.
    """
    config = MachineConfig(sanitize=True) if sanitize else None
    runtime = RunDRuntime(scenario, config=config,
                          fault_plan=_chaos_plan(seed))
    res = runtime.run_fleet(
        _CHAOS_FLEET, APPS["blogbench"],
        rounds=scaled_iterations(30, scale),
    )
    checks = violations = 0
    for container in runtime.containers:
        suite = container.machine.sanitizers
        if suite is not None:
            checks += suite.report.total_checks
            violations += len(suite.violations)
    r = res.recovery
    row: RowData = (scenario, [
        r.availability,
        r.mttr_ns / 1e6,
        float(r.restarts),
        float(r.total_crashes),
        float(r.boot_retries),
        res.makespan_ns / 1e6,
    ])
    return row, checks, violations


def _chaos_row(scenario: str, scale: float = 1.0,
               seed: int = CHAOS_DEFAULT_SEED) -> RowData:
    row, _, _ = _chaos_run(scenario, scale, seed, sanitize=False)
    return row


def chaos(scale: float = 1.0, seed: Optional[int] = None,
          sanitize: bool = False) -> ExperimentResult:
    """Chaos run: the same fault plan injected into every deployment
    scenario's container fleet, comparing how each recovers.

    The asymmetry to look for: a PVM guest restarts entirely inside L1,
    while a hardware-nested (kvm-ept NST) guest's restart must redo its
    VMCS02/shadow-EPT setup serialized on the shared L0 service — so
    under the same crash schedule NST fleets pay a higher MTTR.  The
    injected L0 holder stalls compound it: every NST exit queues behind
    the stalled lock, dilating the whole fleet's makespan, where PVM
    (whose locks are per-VM) barely notices.

    ``seed=None`` runs the canonical seeded plan through the cacheable
    spec; an explicit seed recomputes every row directly (never cached —
    the result cache keys on code + scale only, not runtime
    parameters).  ``sanitize=True`` runs every fleet with the runtime
    sanitizers attached (also bypassing the cache) and records the
    aggregate check/violation totals in ``result.notes`` — the row
    values themselves are unchanged, since sanitizer checks run outside
    virtual time.  A violation raises
    :class:`repro.sanitize.SanitizerError` out of the run.
    """
    if seed is None and not sanitize:
        return EXPERIMENT_SPECS["chaos"].run_serial(scale)
    result = _chaos_header(scale)
    checks = violations = 0
    for scenario in _CHAOS_ROWS:
        row, c, v = _chaos_run(
            scenario, scale, seed if seed is not None else CHAOS_DEFAULT_SEED,
            sanitize=sanitize,
        )
        result.add(*row)
        checks += c
        violations += v
    if sanitize:
        result.notes = (
            f"sanitize: {checks} checks, {violations} violations"
        )
    return result


# ---------------------------------------------------------------------------
# Overcommit density sweep (memory QoS; robustness extension)
# ---------------------------------------------------------------------------

#: Seed of the canonical overcommit run; same contract as chaos — rows
#: are pure functions of ``(ratio, scale)`` at this seed, so the sweep
#: rides the parallel fan-out and result cache.  ``overcommit(seed=...)``
#: / ``--fault-seed`` bypass both.
OVERCOMMIT_DEFAULT_SEED = 2024
_OVERCOMMIT_ROWS = ("0.5x", "1.0x", "1.5x")
_OVERCOMMIT_HOST_MIB = 128
_OVERCOMMIT_GUEST_MIB = 32


def _overcommit_plan(seed: int) -> FaultPlan:
    """Deterministic host memory-pressure spikes (an antagonist tenant
    grabbing and releasing large host allocations)."""
    plan = FaultPlan(seed=seed)
    plan.add(SITE_MEMORY_PRESSURE, probability=0.25)
    return plan


def _overcommit_qos() -> MemoryQosConfig:
    """The sweep's QoS knobs: admission caps the host at 1.25x so the
    densest point queues launches, and sustained sub-min pressure
    (spikes on top of guest demand) triggers priority eviction."""
    return MemoryQosConfig(
        overcommit_ratio=1.25,
        spike_frac_lo=0.30, spike_frac_hi=0.50,
        spike_hold_ns=12_000_000,
        reclaim_batch_pages=256,
        evict_after_rounds=1,
    )


def _overcommit_header(scale: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        exp_id="overcommit",
        title=f"Container density vs. memory overcommit "
              f"({_OVERCOMMIT_HOST_MIB} MiB host, "
              f"{_OVERCOMMIT_GUEST_MIB} MiB guests, memalloc)",
        columns=["availability", "reclaimed MiB", "evictions",
                 "deferrals", "restarts", "gave up", "makespan ms"],
        unit="mixed",
    )


def _overcommit_keys(scale: float = 1.0) -> Tuple[str, ...]:
    return _OVERCOMMIT_ROWS


def _overcommit_run(key: str, scale: float, seed: int,
                    sanitize: bool) -> Tuple[RowData, int, int]:
    """One density point; returns (row, sanitize checks, violations).

    ``key`` is the overcommit ratio ("1.5x" = fleet guest memory is
    1.5x host physical).  Row values are independent of ``sanitize``
    (checks run outside virtual time).
    """
    ratio = float(key.rstrip("x"))
    n = max(1, int(round(_OVERCOMMIT_HOST_MIB / _OVERCOMMIT_GUEST_MIB * ratio)))
    config = MachineConfig(
        host_mem_bytes=_OVERCOMMIT_HOST_MIB * MIB,
        guest_mem_bytes=_OVERCOMMIT_GUEST_MIB * MIB,
        sanitize=sanitize,
    )
    runtime = RunDRuntime("pvm (NST)", config=config,
                          fault_plan=_overcommit_plan(seed),
                          memory_qos=_overcommit_qos())
    res = runtime.run_fleet(
        n, memalloc,
        total_bytes=scaled_iterations(24, scale) * MIB,
        release=True,
    )
    checks = violations = 0
    for container in runtime.containers:
        suite = container.machine.sanitizers
        if suite is not None:
            checks += suite.report.total_checks
            violations += len(suite.violations)
    p = runtime.pressure
    r = res.recovery
    row: RowData = (key, [
        r.availability,
        p.reclaimed_bytes / MIB,
        float(p.evictions),
        float(p.admissions_deferred),
        float(r.restarts),
        float(r.gave_up),
        res.makespan_ns / 1e6,
    ])
    return row, checks, violations


def _overcommit_row(key: str, scale: float = 1.0,
                    seed: int = OVERCOMMIT_DEFAULT_SEED) -> RowData:
    row, _, _ = _overcommit_run(key, scale, seed, sanitize=False)
    return row


def overcommit(scale: float = 1.0, seed: Optional[int] = None,
               sanitize: bool = False) -> ExperimentResult:
    """Overcommit density sweep: one host, fleets whose total guest
    memory is 0.5x/1.0x/1.5x host physical, under injected
    memory-pressure spikes.

    The shape to check is *graceful degradation*: past 1.0x the fleet
    keeps running — the reclaim daemon balloons idle memory out of
    guests (watermark-driven, proportional to working-set estimates),
    admission control queues launches past the configured overcommit
    ratio instead of oversubscribing, and sustained min-watermark
    pressure evicts the lowest-priority guest, which the supervisor
    restarts once pressure clears.  "gave up" must stay zero at every
    density: no container is ever abandoned.

    ``seed=None`` runs the canonical seeded plan through the cacheable
    spec; an explicit seed recomputes every row directly (never
    cached).  ``sanitize=True`` attaches the runtime sanitizers to
    every fleet (also bypassing the cache) and records check/violation
    totals in ``result.notes``; row values are unchanged.
    """
    if seed is None and not sanitize:
        return EXPERIMENT_SPECS["overcommit"].run_serial(scale)
    result = _overcommit_header(scale)
    checks = violations = 0
    for key in _OVERCOMMIT_ROWS:
        row, c, v = _overcommit_run(
            key, scale, seed if seed is not None else OVERCOMMIT_DEFAULT_SEED,
            sanitize=sanitize,
        )
        result.add(*row)
        checks += c
        violations += v
    if sanitize:
        result.notes = (
            f"sanitize: {checks} checks, {violations} violations"
        )
    return result


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

#: Shardable work-unit descriptors, one per experiment, paper order.
EXPERIMENT_SPECS: Dict[str, ExperimentSpec] = {
    spec.exp_id: spec for spec in (
        ExperimentSpec("switchcost", _switchcost_header, _switchcost_keys,
                       _switchcost_row),
        ExperimentSpec("bootstorm", _bootstorm_header, _bootstorm_keys,
                       _bootstorm_row),
        ExperimentSpec("table1", _table1_header, _table1_keys, _table1_row),
        ExperimentSpec("table2", _table2_header, _table2_keys, _table2_row),
        ExperimentSpec("fig2", _fig2_header, _fig2_keys, _fig2_row),
        ExperimentSpec("fig4", _fig4_header, _fig4_keys, _fig4_row),
        ExperimentSpec("fig10", _fig10_header, _fig10_keys, _fig10_row),
        ExperimentSpec("table3", _table3_header, _scenario_keys, _table3_row),
        ExperimentSpec("table4", _table4_header, _scenario_keys, _table4_row),
        ExperimentSpec("fig11", _fig11_header, _scenario_keys, _fig11_row),
        ExperimentSpec("fig12", _fig12_header, _scenario_keys, _fig12_row),
        ExperimentSpec("fig13", _fig13_header, _scenario_keys, _fig13_row,
                       finalize=_fig13_finalize),
        ExperimentSpec("chaos", _chaos_header, _chaos_keys, _chaos_row),
        ExperimentSpec("overcommit", _overcommit_header, _overcommit_keys,
                       _overcommit_row),
    )
}

#: Experiment registry for the CLI and the benchmark suite.
ALL_EXPERIMENTS = {
    "switchcost": switchcost,
    "bootstorm": bootstorm,
    "table1": table1,
    "table2": table2,
    "fig2": fig2,
    "fig4": fig4,
    "fig10": fig10,
    "table3": table3,
    "table4": table4,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "chaos": chaos,
    "overcommit": overcommit,
}
