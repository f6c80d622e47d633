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
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

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
from repro.guest.process import Process
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.types import PAGE_SHIFT
from repro.hypervisors.base import MachineConfig
from repro.memory.qos import MemoryQosConfig, ReclaimDaemon
from repro.sim.clock import Clock
from repro.sim.cpupool import dilated_stepper
from repro.sim.engine import Engine, SimTask
from repro.sim.locks import SimLock
from repro.sim.stats import PressureStats, RecoveryStats
from repro.workloads.ops import WorkloadResult


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

    All durations are virtual nanoseconds.  A member's failure count is
    every crash it had over the whole run, evictions excepted; it never
    resets.  Restart backoff grows ``backoff_base_ns * 2**(failures-1)``
    capped at ``backoff_cap_ns``.
    """

    #: Failures a member is restarted after; its next failure (counted
    #: over the whole run, evictions excepted) makes the supervisor
    #: give up on it.
    max_restarts: int = 3
    #: Transient boot failures retried per container launch.
    boot_retries: int = 3
    #: First restart backoff (doubles with each further failure).
    backoff_base_ns: int = 10_000_000  # 10 ms
    #: Backoff ceiling.
    backoff_cap_ns: int = 160_000_000  # 160 ms
    #: Per-attempt virtual-time deadline; a container that runs this
    #: long without finishing its workload is declared hung and
    #: restarted.  None disables the watchdog.
    watchdog_ns: Optional[int] = None


#: Legal fleet-member transitions.  ``None`` is a member not yet
#: launched.  Crash reasons ("guest-panic", "evicted", ...) label edges;
#: they are never states.
TRANSITIONS: Dict[Optional[str], Tuple[str, ...]] = {
    None: ("pending", "running", "boot-failed"),
    "pending": ("running", "boot-failed"),
    "running": ("backoff", "done", "gave-up"),
    "backoff": ("running",),
    "done": (),
    "gave-up": (),
    "boot-failed": (),
}


class MemberStateError(RuntimeError):
    """A fleet member took an edge :data:`TRANSITIONS` does not allow.

    ``history`` is the member's ``(virtual time, from, to, reason)``
    transitions, the illegal one last.
    """

    def __init__(self, name: str, history: List[tuple]) -> None:
        super().__init__(f"{name}: illegal transition; history: {history}")
        self.history = history


class FleetMember:
    """One slot of a :meth:`RunDRuntime.run_fleet` fleet.

    Owns the slot's engine task, its container, its failure count and
    one state from :data:`TRANSITIONS`.  ``pending`` waits for memory-QoS
    admission, ``running`` steps the workload, and ``backoff`` waits out
    a restart delay; ``done``, ``gave-up`` and ``boot-failed`` are
    terminal.  Every fleet takes this one path; its mode only limits
    the edges: without a fault plan a crash or boot failure propagates
    instead of being taken, and without memory QoS no member is ever
    pending or retired.

    All methods are private: perfbench's tracer wraps the public methods
    of this module's classes, and :meth:`_step` runs for every workload
    operation.
    """

    def __init__(self, runtime: "RunDRuntime", engine: Engine, index: int,
                 priority: int, workload_factory: Callable, params: Dict,
                 cpu_pool=None) -> None:
        self.runtime = runtime
        self.engine = engine
        #: Memory-QoS eviction priority (lowest is evicted first).
        self.priority = priority
        self.workload_factory = workload_factory
        self.params = params
        self.cpu_pool = cpu_pool
        #: The member's engine task.  It starts on its own zero clock;
        #: launch or admission binds it to the container's vCPU clock.
        self.task = SimTask(name=f"pending-{index}", clock=Clock(0),
                            stepper=self._step)
        self.container: Optional[SecureContainer] = None
        self.state: Optional[str] = None
        #: Crashes so far, evictions excepted (the restart budget).
        self.failures = 0
        #: ``(virtual time, from, to, reason)`` per transition.
        self.history: List[tuple] = []
        self._gen = None

    def _enter(self, to: str, reason: str) -> None:
        """Take the edge to ``to``; raise on an edge not in the table."""
        self.history.append((self.task.clock.now, self.state, to, reason))
        if to not in TRANSITIONS[self.state]:
            raise MemberStateError(self.task.name, self.history)
        self.state = to

    @property
    def _since(self) -> int:
        """Virtual time the member entered its current state."""
        return self.history[-1][0]

    def _step(self) -> bool:
        """One engine step in the current state; True while work remains."""
        if self.state == "backoff":
            return self._restart()
        if self.state == "pending":
            return self._launch()
        rt = self.runtime
        plan = rt.fault_plan
        if plan is not None:
            cid = self.container.container_id
            if cid in rt._evicting:
                rt._evicting.discard(cid)
                return self._crash("evicted")
            watchdog = rt.policy.watchdog_ns
            if watchdog is not None and self.task.clock.now - self._since > watchdog:
                return self._crash("watchdog")
        try:
            if plan is not None:
                now = self.task.clock.now
                events = self.container.machine.events
                if plan.fires(SITE_GUEST_PANIC, now, events=events):
                    raise GuestPanicError(f"{cid}: injected triple fault")
                if plan.fires(SITE_GUEST_PHYS, now, events=events):
                    raise GuestOomError(
                        f"{cid}: guest-physical frames exhausted"
                    )
            next(self._gen)
            return True
        except StopIteration:
            return self._retire("done", "exit")
        except (GuestPanicError, GuestOomError, MemoryError,
                IoCompletionError) as exc:
            if plan is None:
                raise
            if isinstance(exc, GuestPanicError):
                return self._crash("guest-panic")
            if isinstance(exc, IoCompletionError):
                return self._crash("io-error")
            return self._crash("guest-oom")

    def _launch(self) -> bool:
        """Launch (or, from ``pending``, admit) the member's container.

        A launch past the admission limit queues the member; a queued
        member retries each QoS scan interval at its task's virtual
        time.  Returns False once the member failed for good.
        """
        rt = self.runtime
        task = self.task
        try:
            container = rt.launch(start_ns=task.clock.now,
                                  priority=self.priority)
        except RuntimeError_ as exc:
            if isinstance(exc, AdmissionError):
                if self.state is None:
                    rt.pressure.admissions_deferred += 1
                    self._enter("pending", "deferred")
                    return True
                if rt._admitted_frames:
                    # A running guest will retire and free its admission.
                    self.engine.park(
                        task, task.clock.now + rt.memory_qos.scan_interval_ns
                    )
                    return True
            # Permanent boot failure (retry budget, the NST capacity
            # cliff, or a guest no retirement can ever make room for):
            # the member never comes up; its whole window is downtime.
            self._enter("boot-failed", type(exc).__name__)
            if rt.fault_plan is None:
                raise
            rt.recovery.boot_failures += 1
            return False
        # The task becomes the member: the engine re-reads its clock and
        # name at the next pop.
        task.name = container.container_id
        task.clock = container.ctx.clock
        self.container = container
        suite = container.machine.sanitizers
        if suite is not None:
            self.engine.lockdeps.append(suite.lockdep)
        self._gen = container.run(self.workload_factory, **self.params)
        if self.cpu_pool is not None:
            # Registered only now: a queued member holds no hardware
            # thread while it waits for admission.
            task.stepper = dilated_stepper(task, self.cpu_pool)
        self._enter("running", "admitted" if self.state else "launch")
        return True

    def _crash(self, reason: str) -> bool:
        """The guest died: back off for a restart, or give up on it."""
        rt = self.runtime
        policy = rt.policy
        rt.recovery.record_crash(reason)
        self.container.mark_crashed()
        self._teardown(exit_init=True)
        if reason != "evicted":
            # Evictions are a policy decision, not a fault: they never
            # consume the restart budget, so an evicted guest is always
            # restartable once pressure clears (zero abandoned members).
            self.failures += 1
        if self.failures > policy.max_restarts:
            rt.recovery.gave_up += 1
            self.container.machine.events.recovery("gave-up")
            return self._retire("gave-up", reason)
        self._enter("backoff", reason)
        backoff = min(
            policy.backoff_base_ns * (1 << max(0, self.failures - 1)),
            policy.backoff_cap_ns,
        )
        self.engine.park(self.task, self.task.clock.now + backoff)
        return True

    def _restart(self) -> bool:
        """Woke from backoff: boot a replacement guest and rerun."""
        rt = self.runtime
        clock = self.task.clock
        if self.history[-1][3] == "evicted":
            qos = rt.memory_qos
            host = rt.host_phys
            if host.free_frames < int(host.total_frames * qos.low_watermark):
                # Restarting into the same pressure would just get this
                # guest evicted again; hold it down until the host
                # clears the low watermark.
                self.engine.park(self.task, clock.now + qos.scan_interval_ns)
                return True
        container = self.container
        container.relaunch(rt._boot(container.machine, clock))
        self._gen = container.run(self.workload_factory, **self.params)
        rt.recovery.record_restart(clock.now - self._since)
        container.machine.events.recovery("restart")
        self._enter("running", "restart")
        return True

    def _retire(self, to: str, reason: str) -> bool:
        """Finish the member (``done`` or ``gave-up``).

        With memory QoS its admission and host memory are released at
        once, so queued launches can be admitted.
        """
        self._enter(to, reason)
        rt = self.runtime
        if rt.memory_qos is not None:
            rt._admitted_frames -= rt.config.guest_mem_bytes >> PAGE_SHIFT
            self._teardown(exit_init=False)
        return False

    def _teardown(self, exit_init: bool) -> None:
        """Tear the guest down as destroying the VM would.

        A QoS host gets every backing frame back in its shared pool.
        Crashes also reap init, so restarts do not leak guest-physical
        memory across lifetimes.  Dropping the VPID clears host-side
        translations: a relaunched guest that reuses the PCID window
        must not hit a dead lifetime's cached entries.
        """
        container = self.container
        machine = container.machine
        if self.runtime.memory_qos is not None:
            machine.teardown_guest_memory()
        if exit_init:
            machine.kernel.exit_process(container.init)
            machine.on_process_destroyed(container.ctx, container.init)
        for mctx in machine.contexts:
            mctx.mmu.drop_vpid(machine.vpid)


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
        #: Guest frames admitted and not yet released by a retirement.
        self._admitted_frames = 0
        #: Container ids marked by :meth:`evict` whose members have not
        #: yet crashed.
        self._evicting: Set[str] = set()
        #: Members of the last :meth:`run_fleet`, in index order.
        self._members: List[FleetMember] = []
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
        init = self._boot(machine, ctx.clock, retry_ns)
        seq = next(self._ids)
        container = SecureContainer(
            container_id=f"sc-{seq}",
            machine=machine,
            ctx=ctx,
            init=init,
            boot_ns=BOOT_NS,
            priority=priority,
            launch_seq=seq,
        )
        self.containers.append(container)
        if qos is not None:
            self._admitted_frames += need
            self.pressure.admissions_admitted += 1
        return container

    def _boot(self, machine, clock: Clock, retry_ns: int = 0) -> Process:
        """Boot a guest's init process: one sequence for launch and restart.

        Charges ``retry_ns`` of failed boot attempts plus one boot.
        Under hardware-assisted nesting L0 must then build the guest's
        VMCS02/shadow-EPT state, serialized across the fleet on the
        shared L0 service — the cliff concurrent launches and restarts
        queue on.
        """
        clock.advance(retry_ns + BOOT_NS)
        if pins_host_state(machine):
            self.shared_l0.run_locked(clock, NESTED_BOOT_L0_NS)
        return machine.spawn_process()

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

    # -- memory QoS --------------------------------------------------------

    def evict(self, container: SecureContainer) -> None:
        """Mark a fleet member's container for eviction.

        Its member crashes it with reason ``"evicted"`` at its next
        step — exempt from the restart budget — and restarts it once
        host pressure clears.
        """
        self._evicting.add(container.container_id)

    @property
    def evicting(self) -> FrozenSet[str]:
        """Ids of containers marked for eviction and not yet crashed."""
        return frozenset(self._evicting)

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
        in ``result.recovery``.  A member that never boots has no
        completion entry.  Containers are always stopped on the way
        out, even when the engine raises.
        """
        if self.fault_plan is not None:
            self.recovery = RecoveryStats()
        if self.memory_qos is not None:
            self.pressure = PressureStats()
            self._evicting.clear()
        first = len(self.containers)
        engine = Engine(max_steps=max_steps)
        self._members = []
        try:
            for i in range(n):
                # Earlier members get higher eviction priority, so
                # under pressure the latest arrivals yield first.
                member = FleetMember(self, engine, i, n - i, workload_factory,
                                     params, cpu_pool)
                self._members.append(member)
                member._launch()
            # Launched members first, then the admission queue.
            members = [m for m in self._members if m.state == "running"]
            members += [m for m in self._members if m.state == "pending"]
            for m in members:
                engine.add(m.task)
            if self.memory_qos is not None:
                ReclaimDaemon(
                    self, self.memory_qos, self.pressure,
                    watched=[m.task for m in members], plan=self.fault_plan,
                ).make_task(engine)
            makespan = engine.run()
            fleet = self.containers[first:]
            counters: Dict[str, Dict[str, int]] = {}
            for container in fleet:
                for name, vals in container.machine.events.snapshot().items():
                    bucket = counters.setdefault(name, {})
                    for k, v in vals.items():
                        bucket[k] = bucket.get(k, 0) + v
            recovery = self.recovery if self.fault_plan is not None else None
            if recovery is not None:
                for m in self._members:
                    if m.state == "gave-up":
                        recovery.total_downtime_ns += max(0, makespan - m._since)
                recovery.total_downtime_ns += (
                    recovery.boot_failures * makespan
                )
                recovery.finalize(span_ns=makespan, members=n)
            base = BOOT_NS if fleet else 0
            return WorkloadResult(
                scenario=self.scenario,
                n=n,
                makespan_ns=makespan - base,
                completions_ns=[m.task.finished_at - base for m in members
                                if m.state != "boot-failed"],
                counters=counters,
                recovery=recovery,
            )
        finally:
            self.stop_all()
            for m in self._members:
                # Cut the members' links back to the engine and the
                # runtime: refcounting, not the cyclic collector, then
                # frees a finished fleet's machines.
                m.task.stepper = m.runtime = None
