"""Shared experiment plumbing: result container, measurement drivers.

Scale-down policy (documented per experiment in EXPERIMENTS.md): the
``scale`` parameter of each experiment multiplies iteration counts /
working sets; ``scale=1.0`` is the default quick configuration used by
the pytest-benchmark targets, chosen so the whole suite runs in
minutes.  Virtual-time results are scale-invariant in shape because
costs are linear in operation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import make_machine
from repro.hypervisors.base import Machine, MachineConfig
from repro.sim.engine import Engine, SimTask
from repro.workloads.ops import gen_stepper


#: The five deployment scenarios of §4, paper order.
SCENARIOS_EVAL = (
    "kvm-ept (BM)",
    "kvm-spt (BM)",
    "pvm (BM)",
    "kvm-ept (NST)",
    "pvm (NST)",
)
SCENARIOS_BM = ("kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)")
SCENARIOS_NST = ("kvm-ept (NST)", "kvm-spt (NST)", "pvm (NST)")

#: The paper's testbed: two 26-core Xeons with hyperthreading.
HOST_CORES = 104


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    exp_id: str
    title: str
    columns: Sequence[str]
    #: row label -> values aligned with ``columns``.
    rows: "List[Tuple[str, List[float]]]" = field(default_factory=list)
    unit: str = ""
    notes: str = ""

    def add(self, label: str, values: Sequence[float]) -> None:
        """Record one sample/entry."""
        self.rows.append((label, list(values)))

    def value(self, row_label: str, column: str) -> float:
        """One cell by (row label, column)."""
        for label, values in self.rows:
            if label == row_label:
                return values[list(self.columns).index(column)]
        raise KeyError(row_label)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Rows as {label: {column: value}}."""
        return {
            label: dict(zip(self.columns, values)) for label, values in self.rows
        }


def measure_concurrent_op_ns(
    scenario: str,
    factory: Callable,
    n: int,
    config: Optional[MachineConfig] = None,
    shared_machine: bool = True,
    reset_stats: bool = False,
    **params,
) -> float:
    """Mean per-iteration latency with ``n`` concurrent instances.

    Setup portions (everything before a factory's first yield) run
    outside the timed window.  ``shared_machine`` puts all instances in
    one guest (the Table 3/4 "#C 32" configuration); otherwise each
    instance gets its own machine over a shared L0.  ``reset_stats``
    zeroes every machine's counters (events, TLB) at the barrier so
    reported hit rates cover only the measured phase.

    Raises ValueError if no instance records a measured step — a factory
    that exhausts itself during setup is a broken workload, not a
    zero-latency one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    machines: List[Machine]
    if shared_machine:
        m = make_machine(scenario, config=config)
        machines = [m] * n
    else:
        machines = [make_machine(scenario, config=config) for _ in range(n)]
        shared = machines[0].l0_lock
        for m in machines[1:]:
            m.l0_lock = shared
    engine = Engine()
    staged: List[Tuple[SimTask, object]] = []
    for machine in machines:
        ctx = machine.new_context()
        suite = machine.sanitizers
        if suite is not None and suite.lockdep not in engine.lockdeps:
            engine.lockdeps.append(suite.lockdep)
        proc = machine.spawn_process()
        gen = factory(machine, ctx, proc, **params)
        try:
            next(gen)  # setup (or first iteration for setup-free benches)
        except StopIteration:
            continue
        task = SimTask(name="op", clock=ctx.clock, stepper=gen_stepper(gen))
        engine.add(task)
        staged.append((task, ctx))
    # Barrier: all instances begin the measured phase together (setup
    # ran sequentially against shared lock timelines, which would
    # otherwise stagger the instances apart and hide contention).
    barrier = max((ctx.clock.now for _, ctx in staged), default=0)
    measured: List[Tuple[SimTask, int]] = []
    for task, ctx in staged:
        ctx.clock.advance_to(barrier)
        measured.append((task, barrier))
    if reset_stats:
        from repro.sim.stats import reset_phase_stats

        for machine in machines[:1] if shared_machine else machines:
            reset_phase_stats(machine)
    engine.run()
    total_ns = 0
    total_steps = 0
    for task, start in measured:
        end = task.finished_at if task.finished_at is not None else task.clock.now
        total_ns += end - start
        total_steps += task.steps
    if not total_steps:
        raise ValueError(
            f"workload factory {factory!r} recorded no steps on "
            f"{scenario!r}: every instance finished during setup (before "
            f"its first yield), so there is nothing to measure"
        )
    return total_ns / total_steps


def scaled_iterations(base: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, flooring at a minimum."""
    return max(minimum, int(round(base * scale)))
