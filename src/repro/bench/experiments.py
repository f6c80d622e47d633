"""Regeneration of every table and figure in the paper.

Each experiment is defined once, as an :class:`ExperimentSpec` in
:data:`ALL_EXPERIMENTS`, and is importable under its id
(``from repro.bench.experiments import table1``).  Calling a spec —
``table1(scale)``, ``fig10(scale, procs=(1, 8))``, ``chaos(seed=7)`` —
runs it through :func:`repro.bench.parallel.run_experiment`, the same
work-unit engine the CLI uses, and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows/columns mirror
the paper's layout.  Absolute values are simulated nanoseconds (or
derived units); the claims to check are the *shapes*: who wins, by what
factor, where crossovers fall.  See EXPERIMENTS.md for the
paper-vs-measured record.

Every row is a pure function of ``(experiment, row key, scale,
params)`` over freshly built machines, so rows can be computed in any
order, in any process, served from the result cache, and merged back
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

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
from repro.sim.stats import sanitizer_stats
from repro.workloads import cloudsuite as cs
from repro.workloads import lmbench
from repro.workloads.apps import APPS
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import run_concurrent


class Row(NamedTuple):
    """One computed row.  ``sanitize`` is the ``(checks, violations)``
    total of the fleets the row ran; it stays ``(0, 0)`` unless
    ``PVM_SANITIZE`` or ``MachineConfig`` switched the sanitizers on."""

    label: str
    values: List[float]
    sanitize: Tuple[int, int] = (0, 0)


#: What a row function returns: ``(label, values)`` or a :class:`Row`.
RowData = Union[Tuple[str, List[float]], Row]


@dataclass(frozen=True)
class ExperimentSpec:
    """The one definition of a table/figure.

    ``row(key, scale, **params)`` regenerates exactly one row and must
    be module-level (work units cross process boundaries, so it pickles
    by reference).  ``params`` holds the default of every parameter the
    experiment takes; ``columns`` may be a function of those params and
    ``notes`` a function of the scale.  ``finalize`` runs once over the
    merged result for the rare cross-row post-processing (fig13's
    normalization to the first row).
    """

    exp_id: str
    #: One-line description, for ``pvm-bench --list``.
    summary: str
    title: str
    columns: Union[Sequence[str], Callable[..., Sequence[str]]]
    keys: Tuple[str, ...]
    row: Callable[..., RowData]
    unit: str = ""
    notes: Union[str, Callable[[float], str]] = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    finalize: Optional[Callable[[ExperimentResult], None]] = None

    def bind(self, params: Optional[Mapping[str, Any]] = None,
             ) -> Tuple[Tuple[str, Any], ...]:
        """``params`` over the defaults, as sorted ``(name, value)``
        pairs (lists become tuples so the pairs hash)."""
        params = dict(params or {})
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise TypeError(f"{self.exp_id} takes no parameter(s) {unknown}")
        merged = {**self.params, **params}
        return tuple(sorted(
            (name, tuple(v) if isinstance(v, list) else v)
            for name, v in merged.items()))

    def header(self, scale: float = 1.0, **params) -> ExperimentResult:
        """The empty result: title, columns, unit and notes."""
        columns = self.columns
        if callable(columns):
            columns = columns(**dict(self.bind(params)))
        notes = self.notes(scale) if callable(self.notes) else self.notes
        return ExperimentResult(self.exp_id, self.title, list(columns),
                                unit=self.unit, notes=notes)

    def __call__(self, scale: float = 1.0, **params) -> ExperimentResult:
        """Run every row in-process through the work-unit engine."""
        from repro.bench.parallel import run_experiment

        return run_experiment(self.exp_id, scale, params=params)


def _fleet_sanitize(runtime: RunDRuntime) -> Tuple[int, int]:
    """Sanitizer ``(checks, violations)`` over a fleet's machines."""
    stats = [sanitizer_stats(c.machine) for c in runtime.containers]
    return (int(sum(s["sanitize_checks"] for s in stats)),
            int(sum(s["sanitize_violations"] for s in stats)))


# ---------------------------------------------------------------------------
# Micro-benchmarks (§4.1)
# ---------------------------------------------------------------------------

_TABLE1_METHODS = {
    "Hypercall": "hypercall", "Exception": "exception",
    "MSR access": "msr_access", "CPUID": "cpuid", "PIO": "pio",
}
_TABLE1_SCEN = {
    "kvm (BM)": "kvm-ept (BM)", "pvm (BM)": "pvm (BM)",
    "kvm (NST)": "kvm-ept (NST)", "pvm (NST)": "pvm (NST)",
}


def _table1_row(op: str, scale: float) -> RowData:
    iters = scaled_iterations(500, scale)
    values = []
    for scenario in _TABLE1_SCEN.values():
        for kpti in (True, False):
            m = make_machine(scenario, config=MachineConfig(kpti=kpti))
            ctx = m.new_context()
            start = ctx.clock.now
            for _ in range(iters):
                getattr(m, _TABLE1_METHODS[op])(ctx)
            values.append((ctx.clock.now - start) / iters / 1000)
    return op, values


table1 = ExperimentSpec(
    "table1",
    summary="Table 1: VM exit/entry round-trip latency (us), KPTI on/off.",
    title="Average round-trip latency (us) of VM exits/entries, "
          "KPTI enabled/disabled",
    columns=[f"{c} ({k})" for c in _TABLE1_SCEN for k in ("kpti", "nokpti")],
    keys=tuple(_TABLE1_METHODS),
    row=_table1_row,
    unit="us",
)


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


def _table2_row(label: str, scale: float) -> RowData:
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


table2 = ExperimentSpec(
    "table2",
    summary="Table 2: get_pid syscall time (us) with/without direct switch.",
    title="Execution time (us) of syscall get_pid, KPTI on/off",
    columns=["kpti", "nokpti"],
    keys=tuple(_TABLE2_ROWS),
    row=_table2_row,
    unit="us",
)


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


def _fig2_row(label: str, scale: float) -> RowData:
    if label in _FIG2_LMBENCH:
        factory = lmbench.PROCESS_SUITE[_FIG2_LMBENCH[label]]
        base = measure_concurrent_op_ns("kvm-ept (BM)", factory, n=1)
        nst = measure_concurrent_op_ns("kvm-ept (NST)", factory, n=1)
    else:
        app = APPS[_FIG2_APPS[label]]
        base = RunDRuntime("kvm-ept (BM)").run_fleet(16, app).mean_completion_ns
        nst = RunDRuntime("kvm-ept (NST)").run_fleet(16, app).mean_completion_ns
    return label, [1.0, nst / base if base else 0.0]


fig2 = ExperimentSpec(
    "fig2",
    summary="Figure 2: overhead of nested virtualization (KVM vs KVM NST), "
            "normalized to single-level KVM.",
    title="Overhead analysis of nested virtualization "
          "(normalized exec time; KVM = 1.0)",
    columns=["KVM", "KVM (NST)"],
    keys=tuple(_FIG2_LMBENCH) + tuple(_FIG2_APPS),
    row=_fig2_row,
    unit="x",
)


_FIG4_ROWS = {
    "EPT": "kvm-ept (BM)",
    "SPT": "kvm-spt (BM)",
    "EPT-EPT": "kvm-ept (NST)",
    "SPT-EPT": "kvm-spt (NST)",
}


def _memalloc_row(scenario: str, scale: float, mib: int, release: bool,
                  procs: Sequence[int],
                  config: Optional[MachineConfig] = None) -> List[float]:
    """memalloc makespan (s) at each process count, ``mib`` MiB per
    process at scale 1, extrapolated to the paper's 4 GiB working set
    (virtual time is linear in fault count)."""
    total = int(mib * MIB * scale)
    extrapolate = (4096 * MIB) / total
    values = []
    for n in procs:
        machine = make_machine(scenario, config=config)
        r = run_concurrent(
            [machine] * n, memalloc, total_bytes=total, release=release
        )
        values.append(r.makespan_ns / 1e9 * extrapolate)
    return values


def _memalloc_note(mib: int, scale: float) -> str:
    total = int(mib * MIB * scale)
    return (f"measured at {total >> 20} MiB/process, reported x"
            f"{(4096 * MIB) / total:.0f}")


def _fig4_row(label: str, scale: float, procs: Sequence[int]) -> RowData:
    return label, _memalloc_row(_FIG4_ROWS[label], scale, 4, False, procs)


fig4 = ExperimentSpec(
    "fig4",
    summary="Figure 4: EPT vs SPT vs EPT-EPT vs SPT-EPT, cumulative-"
            "allocation micro-benchmark, 1..16 processes in one guest.",
    title="Execution time (s) of the cumulative alloc/touch "
          "micro-benchmark (no release)",
    columns=lambda procs: [str(p) for p in procs],
    keys=tuple(_FIG4_ROWS),
    row=_fig4_row,
    unit="s (extrapolated to the paper's 4 GiB working set)",
    notes=lambda scale: (_memalloc_note(4, scale)
                         + " (virtual time is linear in fault count)"),
    params={"procs": (1, 4, 16)},
)


# ---------------------------------------------------------------------------
# Page-fault handling (§4.1, Figure 10)
# ---------------------------------------------------------------------------

#: Figure 10 variant set: full PVM plus one-optimization-removed runs,
#: label -> (scenario, MachineConfig overrides).
_FIG10_ROWS: Dict[str, Tuple[str, Dict[str, bool]]] = {
    "kvm-ept (BM)": ("kvm-ept (BM)", {}),
    "kvm-spt (BM)": ("kvm-spt (BM)", {}),
    "pvm (BM)": ("pvm (BM)", {}),
    "kvm-ept (NST)": ("kvm-ept (NST)", {}),
    "pvm (NST)": ("pvm (NST)", {}),
    "pvm (NST-prefault)": ("pvm (NST)", {"prefault": False}),
    "pvm (NST-pcid)": ("pvm (NST)", {"pcid_mapping": False}),
    "pvm (NST-lock)": ("pvm (NST)", {"fine_grained_locks": False}),
}


def _fig10_row(label: str, scale: float, procs: Sequence[int]) -> RowData:
    scenario, overrides = _FIG10_ROWS[label]
    return label, _memalloc_row(scenario, scale, 2, True, procs,
                                MachineConfig(**overrides))


fig10 = ExperimentSpec(
    "fig10",
    summary="Figure 10: guest page-fault handling, alloc/release variant, "
            "1..32 processes, including the optimization ablations.",
    title="Execution time (s) of the alloc/release/touch "
          "micro-benchmark (guest page-fault handling)",
    columns=lambda procs: [str(p) for p in procs],
    keys=tuple(_FIG10_ROWS),
    row=_fig10_row,
    unit="s (extrapolated to the paper's 4 GiB working set)",
    notes=lambda scale: (_memalloc_note(2, scale)
                         + ". pvm (NST-x) disables optimization x."),
    params={"procs": (1, 2, 4, 8, 16, 32)},
)


# ---------------------------------------------------------------------------
# LMbench suites (§4.2, Tables 3 and 4)
# ---------------------------------------------------------------------------

def _table3_row(scenario: str, scale: float,
                concurrency: Sequence[int]) -> RowData:
    values = []
    for bench, factory in lmbench.PROCESS_SUITE.items():
        for n in concurrency:
            ns = measure_concurrent_op_ns(scenario, factory, n=n)
            values.append(ns / 1000)
    return scenario, values


table3 = ExperimentSpec(
    "table3",
    summary="Table 3: LMbench process suite (us), 1 and 32 processes.",
    title="LMbench: processes — time in us (smaller is better)",
    columns=lambda concurrency: [f"{bench} #{n}"
                                 for bench in lmbench.PROCESS_SUITE
                                 for n in concurrency],
    keys=tuple(SCENARIOS_EVAL),
    row=_table3_row,
    unit="us",
    params={"concurrency": (1, 32)},
)


def _table4_row(scenario: str, scale: float) -> RowData:
    per_page_rows = {"Mmap", "Page Fault"}
    values = []
    for bench, factory in lmbench.FILE_VM_SUITE.items():
        m = make_machine(scenario)
        ns = lmbench.measure_mean_op_ns(
            m, factory, per_page=bench in per_page_rows
        )
        values.append(ns / 1000)
    return scenario, values


table4 = ExperimentSpec(
    "table4",
    summary="Table 4: file & VM system latencies (us).",
    title="File & VM system latencies in us (smaller is better)",
    columns=list(lmbench.FILE_VM_SUITE),
    keys=tuple(SCENARIOS_EVAL),
    row=_table4_row,
    unit="us",
)


# ---------------------------------------------------------------------------
# Real applications (§4.3, Figures 11-13)
# ---------------------------------------------------------------------------

def _fig11_row(scenario: str, scale: float, concurrency: Sequence[int],
               apps: Optional[Sequence[str]]) -> RowData:
    throughput_apps = {"blogbench", "specjbb2005"}
    values = []
    for app in apps or APPS:
        for n in concurrency:
            r = RunDRuntime(scenario).run_fleet(n, APPS[app])
            seconds = r.mean_completion_s
            if app in throughput_apps:
                # Rate score: work units per second (scaled).
                values.append(1000.0 / seconds if seconds else 0.0)
            else:
                values.append(seconds)
    return scenario, values


#: kbuild/fluidanimate report seconds (lower better); blogbench and
#: specjbb2005 report rate scores (higher better).
fig11 = ExperimentSpec(
    "fig11",
    summary="Figure 11: four applications x five scenarios x concurrency.",
    title="Real-world applications under concurrency "
          "(kbuild/fluidanimate: s, lower better; "
          "blogbench/specjbb2005: score, higher better)",
    columns=lambda concurrency, apps: [f"{app} @{n}" for app in apps or APPS
                                       for n in concurrency],
    keys=tuple(SCENARIOS_EVAL),
    row=_fig11_row,
    params={"concurrency": (1, 4, 16), "apps": None},
)


def _fig12_row(scenario: str, scale: float, density: Sequence[int],
               frames: int) -> RowData:
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


#: Hosts are CPU-oversubscribed past HOST_CORES containers, so all
#: surviving approaches converge; kvm-ept (NST) fails to launch past the
#: runtime's nested capacity (the paper's crash at 150).
fig12 = ExperimentSpec(
    "fig12",
    summary="Figure 12: fluidanimate at high container density.",
    title="fluidanimate under high load (average exec time, s); "
          "NaN marks the kvm-ept (NST) runtime-connection failure",
    columns=lambda density, frames: [str(d) for d in density],
    keys=tuple(SCENARIOS_EVAL),
    row=_fig12_row,
    unit="s",
    notes=f"host capacity {HOST_CORES} hardware threads; "
          f"kvm-ept NST capacity {KVM_NST_CAPACITY} containers",
    params={"density": (50, 100, 150), "frames": 24},
)


def _fig13_row(scenario: str, scale: float) -> RowData:
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


fig13 = ExperimentSpec(
    "fig13",
    summary="Figure 13: CloudSuite analytics, normalized to kvm-ept (BM) "
            "(higher is better).",
    title="Cloud benchmarks: performance normalized to kvm-ept (BM)",
    columns=list(cs.CLOUDSUITE),
    keys=tuple(SCENARIOS_EVAL),
    row=_fig13_row,
    unit="x",
    finalize=_fig13_finalize,
)


# ---------------------------------------------------------------------------
# §2.2 / §4.4 measurements
# ---------------------------------------------------------------------------

def _switchcost_row(label: str, scale: float) -> RowData:
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


#: §2.2's paper values: single-level hardware switch 0.105 us, nested
#: L2->L1 switch (via L0) 1.3 us, PVM software switch 0.179 us — measured
#: by timing the one-way legs of each machine's exit machinery.
switchcost = ExperimentSpec(
    "switchcost",
    summary="§2.2's world-switch cost measurements (not a numbered figure).",
    title="World-switch cost (us, one direction) — §2.2 measurements",
    columns=["measured", "paper"],
    keys=("single-level hw switch", "nested L2->L1 switch", "pvm switch"),
    row=_switchcost_row,
    unit="us",
)


def _bootstorm_row(scenario: str, scale: float,
                   densities: Sequence[int]) -> RowData:
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


#: PVM creates L2 guests entirely inside L1; hardware-assisted nesting
#: serializes per-guest VMCS02/shadow-EPT setup on the host.
bootstorm = ExperimentSpec(
    "bootstorm",
    summary="Boot storm (§4.4): p50/p100 container-start latency when N "
            "secure containers launch concurrently.",
    title="Concurrent container-start latency (ms): median / worst",
    columns=lambda densities: [f"p50 @{d}" for d in densities]
                              + [f"max @{d}" for d in densities],
    keys=("pvm (NST)", "kvm-ept (NST)"),
    row=_bootstorm_row,
    unit="ms",
    params={"densities": (1, 50, 100)},
)


# ---------------------------------------------------------------------------
# Chaos / availability (robustness extension; not a paper figure)
# ---------------------------------------------------------------------------

#: Seed of the canonical chaos run; ``chaos(seed=...)`` / ``--fault-seed``
#: re-seed it.  Rows are pure functions of ``(scenario, scale, seed)``.
CHAOS_DEFAULT_SEED = 1337
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


def _chaos_row(scenario: str, scale: float, seed: int) -> RowData:
    runtime = RunDRuntime(scenario, fault_plan=_chaos_plan(seed))
    res = runtime.run_fleet(
        _CHAOS_FLEET, APPS["blogbench"],
        rounds=scaled_iterations(30, scale),
    )
    r = res.recovery
    return Row(scenario, [
        r.availability,
        r.mttr_ns / 1e6,
        float(r.restarts),
        float(r.total_crashes),
        float(r.boot_retries),
        res.makespan_ns / 1e6,
    ], _fleet_sanitize(runtime))


#: The same fault plan injected into every scenario's fleet.  The
#: asymmetry to look for: a PVM guest restarts entirely inside L1, while
#: a hardware-nested (kvm-ept NST) guest's restart must redo its
#: VMCS02/shadow-EPT setup serialized on the shared L0 service — so under
#: the same crash schedule NST fleets pay a higher MTTR.  The injected L0
#: holder stalls compound it: every NST exit queues behind the stalled
#: lock, dilating the whole fleet's makespan, where PVM (whose locks are
#: per-VM) barely notices.
chaos = ExperimentSpec(
    "chaos",
    summary="Chaos run: the same fault plan injected into every deployment "
            "scenario's container fleet, comparing how each recovers.",
    title=f"Fleet availability under injected faults "
          f"({_CHAOS_FLEET} containers, blogbench)",
    columns=["availability", "mttr ms", "restarts", "crashes",
             "boot retries", "makespan ms"],
    keys=("pvm (NST)", "kvm-ept (NST)", "pvm (BM)", "kvm-ept (BM)"),
    row=_chaos_row,
    unit="mixed",
    params={"seed": CHAOS_DEFAULT_SEED},
)


# ---------------------------------------------------------------------------
# Overcommit density sweep (memory QoS; robustness extension)
# ---------------------------------------------------------------------------

#: Seed of the canonical overcommit run; same contract as chaos.
OVERCOMMIT_DEFAULT_SEED = 2024
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


def _overcommit_row(key: str, scale: float, seed: int) -> RowData:
    """One density point: ``key`` is the overcommit ratio ("1.5x" =
    fleet guest memory is 1.5x host physical)."""
    ratio = float(key.rstrip("x"))
    n = max(1, int(round(_OVERCOMMIT_HOST_MIB / _OVERCOMMIT_GUEST_MIB * ratio)))
    config = MachineConfig(
        host_mem_bytes=_OVERCOMMIT_HOST_MIB * MIB,
        guest_mem_bytes=_OVERCOMMIT_GUEST_MIB * MIB,
    )
    runtime = RunDRuntime("pvm (NST)", config=config,
                          fault_plan=_overcommit_plan(seed),
                          memory_qos=_overcommit_qos())
    res = runtime.run_fleet(
        n, memalloc,
        total_bytes=scaled_iterations(24, scale) * MIB,
        release=True,
    )
    p = runtime.pressure
    r = res.recovery
    return Row(key, [
        r.availability,
        p.reclaimed_bytes / MIB,
        float(p.evictions),
        float(p.admissions_deferred),
        float(r.restarts),
        float(r.gave_up),
        res.makespan_ns / 1e6,
    ], _fleet_sanitize(runtime))


#: One host, fleets whose total guest memory is 0.5x/1.0x/1.5x host
#: physical, under injected memory-pressure spikes.  The shape to check
#: is *graceful degradation*: past 1.0x the fleet keeps running — the
#: reclaim daemon balloons idle memory out of guests (watermark-driven,
#: proportional to working-set estimates), admission control queues
#: launches past the configured overcommit ratio instead of
#: oversubscribing, and sustained min-watermark pressure evicts the
#: lowest-priority guest, which the supervisor restarts once pressure
#: clears.  "gave up" must stay zero at every density: no container is
#: ever abandoned.
overcommit = ExperimentSpec(
    "overcommit",
    summary="Overcommit density sweep: fleets at 0.5x/1.0x/1.5x host "
            "memory under injected memory-pressure spikes.",
    title=f"Container density vs. memory overcommit "
          f"({_OVERCOMMIT_HOST_MIB} MiB host, "
          f"{_OVERCOMMIT_GUEST_MIB} MiB guests, memalloc)",
    columns=["availability", "reclaimed MiB", "evictions",
             "deferrals", "restarts", "gave up", "makespan ms"],
    keys=("0.5x", "1.0x", "1.5x"),
    row=_overcommit_row,
    unit="mixed",
    params={"seed": OVERCOMMIT_DEFAULT_SEED},
)


#: Every experiment, paper order: the CLI, the engine, the benchmark
#: suite and the golden snapshot all read this one registry.
ALL_EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.exp_id: spec for spec in (
        switchcost, bootstorm, table1, table2, fig2, fig4, fig10,
        table3, table4, fig11, fig12, fig13, chaos, overcommit,
    )
}
