"""RunD-like secure-container runtime.

Launches secure containers over one physical host.  Every container is
its own guest VM (own kernel, own guest-physical memory, own shadow
state); what they share is the host's root-mode service — one
:class:`~repro.sim.locks.SimLock` that all nested machines' L0 exits
serialize on — and, for PVM NST fleets, nothing else (PVM's locks are
per-VM, which is why PVM fleets scale).

Capacity: hardware-assisted nested virtualization pins VMCS-shadowing
and shadow-EPT resources per L2 guest in the host; past
:data:`KVM_NST_CAPACITY` concurrently-running kvm-ept (NST) containers
the runtime connection fails — modeling the crash the paper observed at
150 containers (Figure 12).

Failure recovery: with a :class:`~repro.faults.FaultPlan` installed the
runtime becomes a *supervisor*.  Container boots retry transient
failures, crashed guests (injected panic, guest OOM, watchdog overrun)
are restarted with capped exponential backoff scheduled in **virtual
time** via :meth:`~repro.sim.engine.Engine.park`, and
:meth:`RunDRuntime.run_fleet` returns availability/MTTR/restart
counters (a :class:`~repro.sim.stats.RecoveryStats`) instead of
propagating the first exception.  The asymmetry the paper implies falls
out of the model: a PVM guest restarts entirely inside L1, while a
hardware-nested guest's restart re-serializes its VMCS02/shadow-EPT
setup on the shared L0 service — restarts re-approach the boot-storm
cliff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro import make_machine
from repro.containers.container import SecureContainer
from repro.containers.migration import pins_host_state
from repro.faults import (
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_GUEST_PHYS,
    FaultPlan,
    GuestOomError,
    GuestPanicError,
    IoCompletionError,
)
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.types import PAGE_SHIFT
from repro.hypervisors.base import MachineConfig
from repro.memory.qos import MemoryQosConfig, ReclaimDaemon
from repro.sim.clock import Clock
from repro.sim.engine import Engine, SimTask
from repro.sim.locks import SimLock
from repro.sim.stats import PressureStats, RecoveryStats
from repro.workloads.ops import WorkloadResult, gen_stepper


#: Maximum concurrently-running kvm-ept (NST) containers before the
#: RunD connection fails (paper §4.3: kvm-ept NST "crashed due to a
#: failure to connect to the RunD container runtime" at 150).
KVM_NST_CAPACITY = 128

#: Cold-boot time of a lightweight VM + container (RunD's headline is
#: high-concurrency startup; we charge a flat simulated boot).
BOOT_NS = 30_000_000  # 30 ms

#: Root-mode work to set up nested state for one new L2 guest under
#: hardware-assisted nesting (VMCS02 allocation, shadow-EPT roots) —
#: serialized on the host's L0 service, which is what turns concurrent
#: launches into a boot storm.  PVM guests are created entirely inside
#: L1 and pay nothing here.
NESTED_BOOT_L0_NS = 1_500_000  # 1.5 ms


class RuntimeError_(Exception):
    """RunD runtime failure (e.g. nested-capacity exhaustion)."""


#: Friendlier alias (``RuntimeError_`` avoids shadowing the builtin).
RundError = RuntimeError_


class ContainerBootError(RuntimeError_):
    """A container failed to boot past the supervisor's retry budget."""


class AdmissionError(RuntimeError_):
    """Admission control rejected a launch (overcommit limit reached).

    Raised only with memory QoS enabled.  ``run_fleet`` catches it and
    queues the member instead: the launch retries in virtual time until
    a running guest retires and releases its admission."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the failure-recovery supervisor.

    All durations are virtual nanoseconds; restart backoff grows
    ``backoff_base_ns * 2**(failure-1)`` capped at ``backoff_cap_ns``.
    """

    #: Restarts per container before the supervisor gives up on it.
    max_restarts: int = 3
    #: Transient boot failures retried per container launch.
    boot_retries: int = 3
    #: First restart backoff (doubles per consecutive failure).
    backoff_base_ns: int = 10_000_000  # 10 ms
    #: Backoff ceiling.
    backoff_cap_ns: int = 160_000_000  # 160 ms
    #: Per-attempt virtual-time deadline; a container that runs this
    #: long without finishing its workload is declared hung and
    #: restarted.  None disables the watchdog.
    watchdog_ns: Optional[int] = None


class RunDRuntime:
    """Manages a fleet of secure containers for one deployment scenario."""

    def __init__(
        self,
        scenario: str,
        config: Optional[MachineConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        fault_plan: Optional[FaultPlan] = None,
        policy: Optional[SupervisorPolicy] = None,
        memory_qos: Optional[MemoryQosConfig] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or MachineConfig()
        self.costs = costs
        self.fault_plan = fault_plan
        self.policy = policy or SupervisorPolicy()
        #: Memory-QoS config; None disables every QoS code path (the
        #: runtime then behaves bit-identically to a QoS-less build).
        self.memory_qos = memory_qos
        #: Shared host memory pool all guests allocate backing from
        #: (QoS fleets overcommit one host); None = per-machine pools.
        self.host_phys: Optional[PhysicalMemory] = (
            PhysicalMemory("host", self.config.host_mem_bytes)
            if memory_qos is not None else None
        )
        self._admission_limit = (
            int((self.config.host_mem_bytes >> PAGE_SHIFT)
                * memory_qos.overcommit_ratio)
            if memory_qos is not None else 0
        )
        self._admitted_frames = 0
        #: container_id -> admitted frame reservation (released on retire).
        self._admission: Dict[str, int] = {}
        #: Container ids the reclaim daemon marked for eviction; the
        #: supervisor crashes them (reason "evicted") at their next step.
        self._evictions_pending: Set[str] = set()
        #: Memory-pressure scoreboard; reset by each QoS run_fleet.
        self.pressure: Optional[PressureStats] = (
            PressureStats() if memory_qos is not None else None
        )
        #: The host's shared root-mode service.
        self.shared_l0 = SimLock("host-l0-service")
        if fault_plan is not None:
            # An injected holder stall on the L0 service delays every
            # later waiter in the fleet (they queue on the timeline).
            self.shared_l0.stall_hook = fault_plan.lock_stall_hook()
        #: Recovery scoreboard; reset by each supervised run_fleet.
        self.recovery: Optional[RecoveryStats] = (
            RecoveryStats() if fault_plan is not None else None
        )
        self.containers: List[SecureContainer] = []
        self._ids = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    def launch(self, scenario: Optional[str] = None, start_ns: int = 0,
               priority: int = 0) -> SecureContainer:
        """Boot one secure container; may raise :class:`RuntimeError_`.

        ``scenario`` overrides the runtime's default per container —
        PVM guests, hardware-nested guests, and ordinary VMs co-exist
        on one host (§3), sharing only the L0 service.  ``start_ns``
        sets the new vCPU's virtual boot start (queued admissions boot
        at their admission time, not at zero); ``priority`` orders
        memory-QoS evictions (lowest first).

        With a fault plan, transient boot failures (site
        ``container.boot``) are retried up to the policy's
        ``boot_retries``, each failed attempt charging one boot plus a
        backoff to the container's eventual clock; past the budget a
        :class:`ContainerBootError` is raised.  With memory QoS, a
        launch past the overcommit limit raises
        :class:`AdmissionError` instead of oversubscribing the host.
        """
        scenario = scenario or self.scenario
        if (
            scenario == "kvm-ept (NST)"
            and self.running_count >= KVM_NST_CAPACITY
        ):
            raise RuntimeError_(
                f"RunD: failed to connect to container runtime "
                f"(kvm-ept NST capacity {KVM_NST_CAPACITY} exhausted)"
            )
        qos = self.memory_qos
        need = self.config.guest_mem_bytes >> PAGE_SHIFT
        if qos is not None and self._admitted_frames + need > self._admission_limit:
            raise AdmissionError(
                f"RunD: admission denied — {need} frames would exceed the "
                f"overcommit limit ({self._admitted_frames}/"
                f"{self._admission_limit} admitted)"
            )
        retry_ns = 0
        if self.fault_plan is not None:
            failed_boots = 0
            while self.fault_plan.fires(SITE_CONTAINER_BOOT, retry_ns):
                failed_boots += 1
                if failed_boots > self.policy.boot_retries:
                    raise ContainerBootError(
                        f"RunD: container boot failed {failed_boots} times "
                        f"(retry budget {self.policy.boot_retries} exhausted)"
                    )
                if self.recovery is not None:
                    self.recovery.boot_retries += 1
                retry_ns += BOOT_NS + self.policy.backoff_base_ns
        machine = make_machine(scenario, config=self.config, costs=self.costs,
                               host_phys=self.host_phys)
        machine.l0_lock = self.shared_l0
        machine.fault_plan = self.fault_plan
        ctx = machine.new_context()
        ctx.clock.advance_to(start_ns)
        ctx.clock.advance(retry_ns + BOOT_NS)
        if pins_host_state(machine):
            # Hardware-assisted nesting: L0 must build this guest's
            # VMCS02/shadow-EPT state — serialized across the fleet.
            self.shared_l0.run_locked(ctx.clock, NESTED_BOOT_L0_NS)
        init = machine.spawn_process()
        container = SecureContainer(
            container_id=f"sc-{next(self._ids)}",
            machine=machine,
            ctx=ctx,
            init=init,
            boot_ns=BOOT_NS,
            priority=priority,
        )
        self.containers.append(container)
        if qos is not None:
            self._admitted_frames += need
            self._admission[container.container_id] = need
            if self.pressure is not None:
                self.pressure.admissions_admitted += 1
        return container

    def launch_fleet(self, n: int) -> List[SecureContainer]:
        """Launch n containers.

        A mid-fleet launch failure stops every container this call
        already launched before re-raising — no leaked running guests.
        """
        launched: List[SecureContainer] = []
        try:
            for _ in range(n):
                launched.append(self.launch())
        except BaseException:
            for container in launched:
                container.stop()
            raise
        return launched

    def stop_all(self) -> None:
        """Stop every container."""
        for c in self.containers:
            c.stop()

    @property
    def running_count(self) -> int:
        """Containers currently running."""
        return sum(1 for c in self.containers if c.state == "running")

    # -- fleet execution ---------------------------------------------------------

    def run_fleet(
        self,
        n: int,
        workload_factory: Callable,
        max_steps: int = 100_000_000,
        cpu_pool=None,
        **params,
    ) -> WorkloadResult:
        """Launch ``n`` containers, run one workload instance in each,
        and return the fleet's timing (boot excluded from makespan base
        since all containers boot in parallel).

        ``cpu_pool`` (a :class:`~repro.sim.cpupool.CpuPool`) makes the
        fleet share finite hardware threads: past capacity, every
        container's time dilates proportionally.

        With a fault plan installed the run is *supervised*: boot
        failures, guest panics, guest OOM, and watchdog overruns are
        absorbed and recovered per policy instead of propagating, and
        the result carries a :class:`~repro.sim.stats.RecoveryStats`
        in ``result.recovery``.  Containers are always stopped on the
        way out, even when the engine raises.
        """
        from repro.sim.cpupool import dilated_stepper

        supervised = self.fault_plan is not None
        qos = self.memory_qos
        if supervised:
            self.recovery = RecoveryStats()
        if qos is not None:
            self.pressure = PressureStats()
            self._evictions_pending.clear()
        fleet: List[SecureContainer] = []
        #: (member index, priority) of admission-queued launches.
        pending: List[tuple] = []
        #: container_id -> virtual time the supervisor gave up on it.
        dead_at: Dict[str, int] = {}
        try:
            if supervised or qos is not None:
                for i in range(n):
                    # Earlier members get higher eviction priority, so
                    # under pressure the latest arrivals yield first.
                    try:
                        fleet.append(self.launch(priority=n - i))
                    except AdmissionError:
                        pending.append((i, n - i))
                        self.pressure.admissions_deferred += 1
                    except RuntimeError_:
                        if not supervised:
                            raise
                        # Permanent boot failure (retry budget or the
                        # NST capacity cliff): the member never comes
                        # up; its whole window counts as downtime.
                        self.recovery.boot_failures += 1
            else:
                fleet = self.launch_fleet(n)
            engine = Engine(max_steps=max_steps)
            for container in fleet:
                suite = container.machine.sanitizers
                if suite is not None:
                    engine.lockdeps.append(suite.lockdep)
            member_tasks: List[SimTask] = []
            for container in fleet:
                task = SimTask(
                    name=container.container_id,
                    clock=container.ctx.clock,
                    stepper=lambda: False,
                )
                if supervised:
                    task.stepper = self._supervised_stepper(
                        engine, task, container, workload_factory, params,
                        dead_at,
                    )
                else:
                    gen = container.run(workload_factory, **params)
                    task.stepper = gen_stepper(gen)
                if qos is not None:
                    task.stepper = self._with_retirement(task.stepper, container)
                if cpu_pool is not None:
                    task.stepper = dilated_stepper(task, cpu_pool)
                engine.add(task)
                member_tasks.append(task)
            for index, priority in pending:
                task = SimTask(
                    name=f"pending-{index}", clock=Clock(0),
                    stepper=lambda: False,
                )
                task.stepper = self._pending_stepper(
                    engine, task, priority, workload_factory, params,
                    dead_at, supervised, cpu_pool, fleet,
                )
                engine.add(task)
                member_tasks.append(task)
            if qos is not None:
                daemon = ReclaimDaemon(
                    self, qos, self.pressure, watched=list(member_tasks),
                    plan=self.fault_plan,
                )
                daemon.make_task(engine)
            makespan = engine.run()
            counters: Dict[str, Dict[str, int]] = {}
            for container in fleet:
                for name, vals in container.machine.events.snapshot().items():
                    bucket = counters.setdefault(name, {})
                    for k, v in vals.items():
                        bucket[k] = bucket.get(k, 0) + v
            recovery = None
            if supervised:
                recovery = self.recovery
                for died in dead_at.values():
                    recovery.total_downtime_ns += max(0, makespan - died)
                recovery.total_downtime_ns += (
                    recovery.boot_failures * makespan
                )
                recovery.finalize(span_ns=makespan, members=n)
            base = BOOT_NS if (fleet or pending) else 0
            return WorkloadResult(
                scenario=self.scenario,
                n=n,
                makespan_ns=makespan - base,
                completions_ns=[
                    (t.finished_at if t.finished_at is not None else t.clock.now)
                    - base
                    for t in member_tasks
                ],
                counters=counters,
                recovery=recovery,
            )
        finally:
            self.stop_all()

    # -- memory QoS --------------------------------------------------------

    def _retire(self, container: SecureContainer) -> None:
        """Release a finished member's admission and host memory.

        Idempotent: only the first call per container does anything.
        Called when the member's task finishes (workload done *or* the
        supervisor gave up on it) — either way its guest no longer
        needs backing, so queued launches can now be admitted.
        """
        need = self._admission.pop(container.container_id, None)
        if need is None:
            return
        self._admitted_frames -= need
        machine = container.machine
        machine.teardown_guest_memory()
        for mctx in machine.contexts:
            mctx.mmu.drop_vpid(machine.vpid)

    def _with_retirement(
        self, stepper: Callable[[], bool], container: SecureContainer
    ) -> Callable[[], bool]:
        """Retire the member the moment its stepper reports done."""

        def step() -> bool:
            more = stepper()
            if not more:
                self._retire(container)
            return more

        return step

    def _pending_stepper(
        self,
        engine: Engine,
        task: SimTask,
        priority: int,
        workload_factory: Callable,
        params: Dict,
        dead_at: Dict[str, int],
        supervised: bool,
        cpu_pool,
        fleet: List[SecureContainer],
    ) -> Callable[[], bool]:
        """An admission-queued member: retry ``launch`` in virtual time.

        The task starts on its own zero clock; each wake retries the
        launch at the task's current virtual time.  On admission the
        task *becomes* the member — clock, name, and stepper are
        reassigned (the engine re-reads them at the next pop) and the
        container joins ``fleet`` so counters and stop-all see it.  A
        member that can never fit (nothing admitted, so nothing can
        ever retire) gives up as a boot failure instead of parking
        forever.
        """
        from repro.sim.cpupool import dilated_stepper

        qos = self.memory_qos

        def step() -> bool:
            try:
                container = self.launch(
                    start_ns=task.clock.now, priority=priority
                )
            except AdmissionError:
                if self._admitted_frames == 0:
                    if self.recovery is not None:
                        self.recovery.boot_failures += 1
                    return False
                engine.park(task, task.clock.now + qos.scan_interval_ns)
                return True
            except RuntimeError_:
                if self.recovery is not None:
                    self.recovery.boot_failures += 1
                return False
            fleet.append(container)
            suite = container.machine.sanitizers
            if suite is not None:
                engine.lockdeps.append(suite.lockdep)
            task.name = container.container_id
            task.clock = container.ctx.clock
            if supervised:
                inner = self._supervised_stepper(
                    engine, task, container, workload_factory, params,
                    dead_at,
                )
            else:
                inner = gen_stepper(container.run(workload_factory, **params))
            task.stepper = self._with_retirement(inner, container)
            if cpu_pool is not None:
                # Register with the pool only now: a queued member holds
                # no hardware thread while it waits for admission.
                task.stepper = dilated_stepper(task, cpu_pool)
            return True

        return step

    # -- supervision -------------------------------------------------------

    def _supervised_stepper(
        self,
        engine: Engine,
        task: SimTask,
        container: SecureContainer,
        workload_factory: Callable,
        params: Dict,
        dead_at: Dict[str, int],
    ) -> Callable[[], bool]:
        """Wrap one container's workload with crash detection + restart.

        Per step: the watchdog deadline is checked, the fault plan may
        panic the guest (triple fault) or exhaust its guest-physical
        memory, and any injected failure marks the container crashed.
        A crash parks the task in virtual time for a capped exponential
        backoff; on wake the guest re-boots (NST guests re-serialize
        their L0 setup on the shared lock) and the workload restarts
        from scratch.  Past ``max_restarts`` consecutive lifetimes the
        supervisor gives up and the member stays down.
        """
        plan = self.fault_plan
        policy = self.policy
        recovery = self.recovery
        machine = container.machine
        events = machine.events
        clock = container.ctx.clock
        state = {
            "inner": gen_stepper(container.run(workload_factory, **params)),
            "attempt_start": clock.now,
            "crashed_at": None,
            "failures": 0,
            "evicted": False,
        }

        def crash(reason: str, budget_exempt: bool = False) -> bool:
            recovery.record_crash(reason)
            container.mark_crashed()
            # Reclaim the dead guest's frames so restarts don't leak
            # guest-physical memory across lifetimes, and tear down the
            # host-side translation state (shadow tables, TLB/PSC tags)
            # exactly as destroying the VM would — without the teardown,
            # a relaunched guest that reuses the PCID window could hit
            # the dead lifetime's cached translations.
            if self.memory_qos is not None:
                # QoS host: hand every backing frame straight back to
                # the shared pool — eviction's whole point.
                machine.teardown_guest_memory()
            machine.kernel.exit_process(container.init)
            machine.on_process_destroyed(container.ctx, container.init)
            for mctx in machine.contexts:
                mctx.mmu.drop_vpid(machine.vpid)
            if not budget_exempt:
                # Evictions are a policy decision, not a fault: they
                # never consume the member's restart budget, so an
                # evicted guest is always restartable once pressure
                # clears (zero abandoned containers).
                state["failures"] += 1
            if state["failures"] > policy.max_restarts:
                recovery.gave_up += 1
                events.recovery("gave-up")
                dead_at[container.container_id] = clock.now
                return False
            state["crashed_at"] = clock.now
            backoff = min(
                policy.backoff_base_ns * (1 << max(0, state["failures"] - 1)),
                policy.backoff_cap_ns,
            )
            engine.park(task, clock.now + backoff)
            return True

        def step() -> bool:
            if (
                state["crashed_at"] is None
                and container.container_id in self._evictions_pending
            ):
                # The reclaim daemon marked this guest: crash it with
                # the eviction reason (budget-exempt — recovery will
                # restart it once host pressure clears).
                self._evictions_pending.discard(container.container_id)
                state["evicted"] = True
                return crash("evicted", budget_exempt=True)
            if state["crashed_at"] is not None:
                if state["evicted"] and self.host_phys is not None:
                    qcfg = self.memory_qos
                    low = int(
                        self.host_phys.total_frames * qcfg.low_watermark
                    )
                    if self.host_phys.free_frames < low:
                        # Restarting into the same pressure would just
                        # get this guest evicted again; hold it down
                        # until the host clears the low watermark.
                        engine.park(task, clock.now + qcfg.scan_interval_ns)
                        return True
                state["evicted"] = False
                # Woke from restart backoff: boot the replacement guest.
                clock.advance(BOOT_NS)
                if pins_host_state(machine):
                    # A hardware-nested restart re-serializes VMCS02 /
                    # shadow-EPT setup on the host's L0 service — the
                    # same cliff concurrent launches queue on.
                    self.shared_l0.run_locked(clock, NESTED_BOOT_L0_NS)
                init = machine.spawn_process()
                container.relaunch(init)
                state["inner"] = gen_stepper(
                    workload_factory(machine, container.ctx, init, **params)
                )
                recovery.record_restart(clock.now - state["crashed_at"])
                events.recovery("restart")
                state["crashed_at"] = None
                state["attempt_start"] = clock.now
                return True
            if (
                policy.watchdog_ns is not None
                and clock.now - state["attempt_start"] > policy.watchdog_ns
            ):
                return crash("watchdog")
            try:
                if plan.fires(SITE_GUEST_PANIC, clock.now, events=events):
                    raise GuestPanicError(
                        f"{container.container_id}: injected triple fault"
                    )
                if plan.fires(SITE_GUEST_PHYS, clock.now, events=events):
                    raise GuestOomError(
                        f"{container.container_id}: guest-physical frames "
                        f"exhausted"
                    )
                more = state["inner"]()
            except GuestPanicError:
                return crash("guest-panic")
            except (GuestOomError, MemoryError):
                return crash("guest-oom")
            except IoCompletionError:
                return crash("io-error")
            return more

        return step
