"""The benchmark's three workloads, built from a seed over the public API.

A workload is a list of :class:`Item` s.  Each item is one unit of work
the benchmark times: ``prepare`` builds machines or a runtime (not
timed), ``run`` produces the item's virtual outputs (timed), and
``verify`` tears everything down and checks the invariants (not timed).
All random choices are drawn here from the seed; the simulator only
receives the generated inputs.

* ``fault_churn`` writes page tables: memalloc-style alloc/touch/release
  on every machine, the shape of Figures 4 and 10.
* ``switch_path`` exercises world switches and nothing else: Table 1/2/3
  exits, syscalls and HLT loops on already-mapped guests.
* ``fleets`` runs RunD container fleets: the four application mixes, a
  chaos fleet and an overcommitted fleet under memory QoS.

See README.md for which layer each workload is meant to load.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import SCENARIOS, make_machine
from repro.bench.experiments import table1, table2
from repro.containers.runtime import RunDRuntime
from repro.faults import (
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_L0_STALL,
    SITE_MEMORY_PRESSURE,
    FaultPlan,
)
from repro.hw.events import diff_snapshots
from repro.hw.types import MIB, PAGE_SHIFT
from repro.hypervisors.base import MachineConfig
from repro.memory.qos import MemoryQosConfig
from repro.sim.cpupool import CpuPool
from repro.sim.stats import translation_stats
from repro.workloads.apps import APPS
from repro.workloads.memalloc import memalloc
from repro.workloads.ops import run_concurrent


class InvariantError(AssertionError):
    """A work item broke an invariant the benchmark checks."""


@dataclass
class Item:
    """One timed unit of work of a workload."""

    name: str
    #: Builds the item's machines or runtime; returns the item state.
    prepare: Callable[[], dict]
    #: Does the work on a prepared state; returns the virtual outputs.
    run: Callable[[dict], dict]
    #: Tears the state down and raises :class:`InvariantError` on a
    #: broken invariant.
    verify: Callable[[dict], None]


def digest(virtual: dict) -> str:
    """A short, stable hash of an item's virtual outputs."""
    blob = json.dumps(virtual, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantError(message)


def _used_host_frames(machine) -> int:
    return machine.host_phys.total_frames - machine.host_phys.free_frames


# ---------------------------------------------------------------------------
# fault_churn
# ---------------------------------------------------------------------------

#: Processes per guest, pages each process touches in one item, and the
#: chunk sizes (pages) an allocation is drawn from.
CHURN_PROCS = 4
CHURN_PAGES = 512
CHURN_CHUNKS = (16, 32, 64, 128, 256)
#: User-mode work per touched page, as in the memalloc benchmark.
CHURN_COMPUTE_NS = 120


def _churn_plan(rng: random.Random) -> List[List[int]]:
    """One process's allocations: each is a page touch order."""
    chunks = []
    left = CHURN_PAGES
    while left:
        n = min(left, rng.choice(CHURN_CHUNKS))
        order = list(range(n))
        rng.shuffle(order)
        chunks.append(order)
        left -= n
    return chunks


def _churn(machine, ctx, proc, chunks):
    """Allocate each chunk, touch it in the given order, release it."""
    for order in chunks:
        vma = machine.mmap(ctx, proc, len(order) << PAGE_SHIFT)
        yield
        for offset in order:
            machine.compute(ctx, CHURN_COMPUTE_NS)
            machine.touch(ctx, proc, vma.start_vpn + offset, write=True)
            yield
        machine.munmap(ctx, proc, vma)
        yield


def _churn_prepare(scenario: str) -> dict:
    machine = make_machine(scenario)
    return {"machines": [machine], "used0": _used_host_frames(machine)}


def _churn_run(state: dict, plans: List[List[List[int]]]) -> dict:
    machine = state["machines"][0]
    pending = iter(plans)
    result = run_concurrent(
        [machine] * CHURN_PROCS,
        lambda m, ctx, proc: _churn(m, ctx, proc, next(pending)),
    )
    return {
        "makespan_ns": result.makespan_ns,
        "completions_ns": result.completions_ns,
        "counters": result.counters,
    }


def _churn_verify(state: dict) -> None:
    machine = state["machines"][0]
    ctx = machine.contexts[0]
    for pid in sorted(machine.kernel.processes):
        machine.exit(ctx, machine.kernel.processes[pid])
    machine.teardown_guest_memory()
    used = _used_host_frames(machine)
    _check(used == state["used0"],
           f"host frames not returned: {used} in use, {state['used0']} at start")


def fault_churn(seed: int) -> List[Item]:
    """Alloc/touch/release churn on all seven machines, 4 processes each."""
    rng = random.Random(f"fault_churn/{seed}")
    items = []
    for scenario in SCENARIOS:
        plans = [_churn_plan(rng) for _ in range(CHURN_PROCS)]
        items.append(Item(
            name=scenario,
            prepare=lambda s=scenario: _churn_prepare(s),
            run=lambda state, p=plans: _churn_run(state, p),
            verify=_churn_verify,
        ))
    return items


# ---------------------------------------------------------------------------
# switch_path
# ---------------------------------------------------------------------------

#: The paper's five evaluated scenarios.
SCENARIOS_EVAL = ("kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)",
                  "kvm-ept (NST)", "pvm (NST)")
#: Table 1 privileged operations (Machine method names).
SWITCH_PRIVILEGED = ("hypercall", "exception", "msr_access", "cpuid", "pio")
#: Table 2/3 syscalls that touch no page table.
SWITCH_SYSCALLS = ("get_pid", "null_io", "stat", "select_tcp", "sig_hndl")
#: Each op kind appears this many times per item, in a seeded order.
SWITCH_REPEAT = 6000
#: HLT wake-up delays (ns) drawn per halt, and the compute burst (ns)
#: that lets timer interrupts land between ops.
SWITCH_HALT_NS = (2_000, 5_000, 20_000)
SWITCH_COMPUTE_NS = 200_000
SWITCH_KINDS = SWITCH_PRIVILEGED + SWITCH_SYSCALLS + ("halt", "compute")


def _switch_ops(machine, ctx, proc, script):
    """Bind a (kind, arg) script to the machine's methods."""
    ops = []
    for kind, arg in script:
        if kind in SWITCH_SYSCALLS:
            ops.append((kind, machine.syscall, (ctx, proc, kind)))
        elif kind == "halt":
            ops.append((kind, machine.halt, (ctx, arg)))
        elif kind == "compute":
            ops.append((kind, machine.compute, (ctx, arg)))
        else:
            ops.append((kind, getattr(machine, kind), (ctx,)))
    return ops


def _switch_prepare(scenario: str, script) -> dict:
    machine = make_machine(scenario)
    ctx = machine.new_context()
    proc = machine.spawn_process()
    used0 = _used_host_frames(machine)
    # Warm-up: every op once, so the timed phase maps nothing new.
    warm = [(kind, SWITCH_HALT_NS[0] if kind == "halt" else SWITCH_COMPUTE_NS)
            for kind in SWITCH_KINDS]
    for _, fn, args in _switch_ops(machine, ctx, proc, warm):
        fn(*args)
    return {"machines": [machine], "ctx": ctx, "proc": proc, "used0": used0,
            "ops": _switch_ops(machine, ctx, proc, script)}


def _switch_run(state: dict) -> dict:
    machine, clock = state["machines"][0], state["ctx"].clock
    before = machine.events.snapshot()
    spent: Dict[str, int] = dict.fromkeys(SWITCH_KINDS, 0)
    for kind, fn, args in state["ops"]:
        start = clock.now
        fn(*args)
        spent[kind] += clock.now - start
    events = diff_snapshots(before, machine.events.snapshot())
    state["page_faults"] = events["page_faults"].get("total", 0)
    return {"op_ns": spent, "clock_ns": clock.now, "events": events}


def _switch_verify(state: dict) -> None:
    _check(state["page_faults"] == 0,
           f"timed phase took {state['page_faults']} page faults")
    machine, ctx = state["machines"][0], state["ctx"]
    machine.exit(ctx, state["proc"])
    machine.teardown_guest_memory()
    used = _used_host_frames(machine)
    _check(used == state["used0"],
           f"host frames not returned: {used} in use, {state['used0']} at start")


def switch_path(seed: int) -> List[Item]:
    """Exits, syscalls and HLTs in a seeded order on the 5 scenarios."""
    rng = random.Random(f"switch_path/{seed}")
    items = []
    for scenario in SCENARIOS_EVAL:
        kinds = list(SWITCH_KINDS) * SWITCH_REPEAT
        rng.shuffle(kinds)
        script = [
            (kind, rng.choice(SWITCH_HALT_NS) if kind == "halt"
             else SWITCH_COMPUTE_NS if kind == "compute" else 0)
            for kind in kinds
        ]
        items.append(Item(
            name=scenario,
            prepare=lambda s=scenario, sc=script: _switch_prepare(s, sc),
            run=_switch_run,
            verify=_switch_verify,
        ))
    return items


# ---------------------------------------------------------------------------
# fleets
# ---------------------------------------------------------------------------

FLEET_SCENARIOS = ("pvm (NST)", "kvm-ept (NST)")
FLEET_SIZE = 16
#: Hardware threads the app fleets share (16 containers: dilation 2).
FLEET_CPUS = 8
#: The app mixes, scaled down through the factories' keyword arguments.
FLEET_APPS = {
    "kbuild": {"units": 1},
    "blogbench": {"rounds": 10},
    "specjbb2005": {"batches": 4},
    "fluidanimate": {"frames": 4, "array_pages": 64},
}
CHAOS_ROUNDS = 20
#: Overcommit fleet: guests whose memory totals 1.5x the host's.  The
#: pages they touch exceed the host's low watermark, so reclaim runs on
#: most seeds without relying on a pressure spike.
OVERCOMMIT_HOST_MIB = 8
OVERCOMMIT_GUEST_MIB = 2
OVERCOMMIT_MEMBERS = 6
OVERCOMMIT_TOUCH_BYTES = 3 * MIB // 2
OVERCOMMIT_CHUNK_BYTES = MIB // 2


def _chaos_plan(seed: int) -> FaultPlan:
    plan = FaultPlan(seed=seed)
    plan.add(SITE_CONTAINER_BOOT, probability=0.10)
    plan.add(SITE_GUEST_PANIC, probability=0.004)
    plan.add(SITE_L0_STALL, probability=0.05, stall_ns=500_000)
    return plan


def _overcommit_plan(seed: int) -> FaultPlan:
    plan = FaultPlan(seed=seed)
    plan.add(SITE_MEMORY_PRESSURE, probability=0.25)
    return plan


def _overcommit_qos() -> MemoryQosConfig:
    return MemoryQosConfig(
        overcommit_ratio=1.25,
        spike_frac_lo=0.30, spike_frac_hi=0.50,
        spike_hold_ns=12_000_000,
        reclaim_batch_pages=256,
        evict_after_rounds=1,
    )


def _fleet_prepare(scenario: str, config=None, plan=None, qos=None,
                   cpus=None) -> dict:
    runtime = RunDRuntime(scenario, config=config, fault_plan=plan,
                          memory_qos=qos)
    state = {
        "runtime": runtime,
        "plan": plan,
        "cpu_pool": CpuPool(cpus) if cpus else None,
        # Host frames a machine holds from construction to destruction
        # (its extended/shadow table roots); teardown keeps these.
        "base_frames": _used_host_frames(
            make_machine(scenario, config=runtime.config)),
    }
    if runtime.host_phys is not None:
        state["used0"] = (runtime.host_phys.total_frames
                          - runtime.host_phys.free_frames)
    return state


def _fleet_run(state: dict, members: int, factory, **params) -> dict:
    runtime = state["runtime"]
    result = runtime.run_fleet(members, factory, cpu_pool=state["cpu_pool"],
                               **params)
    state["machines"] = [c.machine for c in runtime.containers]
    state["recovery"] = result.recovery
    out = {
        "makespan_ns": result.makespan_ns,
        "completions_ns": result.completions_ns,
        "counters": result.counters,
    }
    if result.recovery is not None:
        out["recovery"] = result.recovery.snapshot()
    if runtime.pressure is not None:
        out["pressure"] = runtime.pressure.snapshot()
    if state["plan"] is not None:
        out["faults"] = state["plan"].snapshot()
    return out


def _fleet_verify(state: dict) -> None:
    runtime = state["runtime"]
    for machine in state["machines"]:
        machine.teardown_guest_memory()
    base = state["base_frames"]
    if runtime.host_phys is not None:
        used = runtime.host_phys.total_frames - runtime.host_phys.free_frames
        expect = state["used0"] + base * len(state["machines"])
        _check(used == expect,
               f"shared host pool: {used} frames in use after teardown, "
               f"expected {expect}")
    else:
        for machine in state["machines"]:
            used = _used_host_frames(machine)
            _check(used == base,
                   f"{machine.name}: {used} host frames in use after "
                   f"teardown, expected {base}")
    recovery = state["recovery"]
    if recovery is not None:
        _check(0.0 <= recovery.availability <= 1.0,
               f"availability {recovery.availability} outside [0, 1]")
        if runtime.memory_qos is not None:
            _check(recovery.gave_up == 0,
                   f"overcommit fleet gave up on {recovery.gave_up} members")


def _fleet_item(name: str, prepare: Callable[[], dict], factory,
                members: int = FLEET_SIZE, **params) -> Item:
    return Item(
        name=name,
        prepare=prepare,
        run=lambda state: _fleet_run(state, members, factory, **params),
        verify=_fleet_verify,
    )


def fleets(seed: int) -> List[Item]:
    """App mixes, a chaos fleet and an overcommit fleet on pvm and kvm NST."""
    rng = random.Random(f"fleets/{seed}")
    items = []
    for scenario in FLEET_SCENARIOS:
        for app, params in FLEET_APPS.items():
            items.append(_fleet_item(
                f"{scenario}/{app}",
                lambda s=scenario: _fleet_prepare(s, cpus=FLEET_CPUS),
                APPS[app], **params,
            ))
        chaos_seed = rng.randrange(1 << 30)
        items.append(_fleet_item(
            f"{scenario}/chaos",
            lambda s=scenario, k=chaos_seed: _fleet_prepare(
                s, plan=_chaos_plan(k)),
            APPS["blogbench"], rounds=CHAOS_ROUNDS,
        ))
        over_seed = rng.randrange(1 << 30)
        items.append(_fleet_item(
            f"{scenario}/overcommit",
            lambda s=scenario, k=over_seed: _fleet_prepare(
                s,
                config=MachineConfig(
                    host_mem_bytes=OVERCOMMIT_HOST_MIB * MIB,
                    guest_mem_bytes=OVERCOMMIT_GUEST_MIB * MIB),
                plan=_overcommit_plan(k), qos=_overcommit_qos()),
            memalloc, members=OVERCOMMIT_MEMBERS,
            total_bytes=OVERCOMMIT_TOUCH_BYTES,
            chunk_bytes=OVERCOMMIT_CHUNK_BYTES, release=True,
        ))
    return items


WORKLOADS: Dict[str, Callable[[int], List[Item]]] = {
    "fault_churn": fault_churn,
    "switch_path": switch_path,
    "fleets": fleets,
}


# ---------------------------------------------------------------------------
# Per-item numbers read from virtual outputs and machine state
# ---------------------------------------------------------------------------


def tlb_counts(state: dict) -> tuple:
    """(hits, lookups) so far, summed over every vCPU TLB of the item."""
    hits = lookups = 0.0
    for machine in state.get("machines", ()):
        stats = translation_stats(machine)
        lookups += stats["tlb_lookups"]
        hits += stats["tlb_hit_rate"] * stats["tlb_lookups"]
    return hits, lookups


def reclaimed_mib(virtual: dict) -> float:
    """Host memory the reclaim daemon ballooned out, in MiB."""
    frames = virtual.get("pressure", {}).get("frames_reclaimed", 0.0)
    return frames * (1 << PAGE_SHIFT) / MIB


def faults_injected(virtual: dict) -> int:
    """Fault-plan firings across all sites."""
    return sum(virtual.get("faults", {}).values())


# ---------------------------------------------------------------------------
# Model accuracy against the paper's Table 1 and Table 2
# ---------------------------------------------------------------------------


def model_error_pct(paper: dict) -> float:
    """Mean |measured - paper| / paper over Table 1 (KPTI on) and Table 2.

    ``paper`` holds the paper's values as copied into
    ``data/paper_tables.json``.  The measured side is the repository's
    own Table 1 and Table 2 experiments at their default scale.
    """
    errors = []
    t1 = table1()
    for op, by_config in paper["table1_kpti"].items():
        for config, value in by_config.items():
            measured = t1.value(op, f"{config} (kpti)")
            errors.append(abs(measured - value) / value)
    t2 = table2()
    for row, (kpti, nokpti) in paper["table2"].items():
        for column, value in (("kpti", kpti), ("nokpti", nokpti)):
            errors.append(abs(t2.value(row, column) - value) / value)
    return 100.0 * sum(errors) / len(errors)
