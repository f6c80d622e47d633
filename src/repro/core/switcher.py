"""The PVM switcher (paper §3.2).

A small body of code and data mapped at an identical, otherwise-unused
virtual address into three address spaces — the L1 host kernel, the L2
guest kernel, and the L2 guest user — so it can execute *across* the
page-table switch of a world switch.  It consists of (Figure 6):

* a per-CPU **syscall entry** reached via MSR_LSTAR,
* a per-CPU **switcher state** (PVM's software VMCS) into which guest
  and host register state is saved/restored,
* customized **IDT entries** so interrupts/exceptions during L2
  execution land in the switcher rather than in guest handlers.

Costs: a full world switch (to_hypervisor / enter_guest pair member)
charges :attr:`CostModel.pvm_world_switch`; the *direct switch* — a
user/kernel syscall transition that never leaves the switcher — charges
only a ring transition plus frame-building work.  General-purpose
registers are cleared on every exit to prevent speculative leaks of
another world's state (§3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.guest.interrupts import HandlerSite, Idt
from repro.hw.costs import CostModel
from repro.hw.cpu import SharedIfWord
from repro.hw.events import EventLog, SwitchKind, TraceEvent
from repro.sim.clock import Clock


#: The identical virtual address at which the switcher's per-CPU entry
#: area is mapped into all three address spaces.  Chosen (like KPTI's
#: cpu_entry_area) in an unused top-of-address-space PUD; PVM shifts the
#: guest's copy back by one PUD so the guest's own entry area co-exists.
SWITCHER_BASE_VA = 0xFFFF_FE00_0000_0000
PUD_SIZE = 1 << 30


class GuestWorld(enum.Enum):
    """Which world a deprivileged L2 vCPU is logically in."""

    USER = "v_ring3"
    KERNEL = "v_ring0"
    HYPERVISOR = "l1-hypervisor"


@dataclass
class SwitcherState:
    """Per-CPU save/restore area — PVM's software VMCS.

    Tracks which world currently owns the CPU and holds the virtualized
    state PVM needs at switch time: the two hardware CR3s of the guest
    (user/kernel), the host CR3, and the shared interrupt-flag word.
    """

    cpu_id: int
    world: GuestWorld = GuestWorld.HYPERVISOR
    v_ring0_hw_cr3: Optional[int] = None
    v_ring3_hw_cr3: Optional[int] = None
    host_cr3: Optional[int] = None
    shared_if: SharedIfWord = field(default_factory=SharedIfWord)
    #: Registers cleared on the last exit (security invariant; tests
    #: assert this is always True after a world switch to the hypervisor).
    regs_cleared: bool = True
    #: Guest-state saves into, and host-state restores from, this
    #: area (one each per VM exit).
    saves: int = 0
    restores: int = 0


_HYPERVISOR = GuestWorld.HYPERVISOR
_KERNEL = GuestWorld.KERNEL
_USER = GuestWorld.USER
#: Counter keys of the switcher's two switch kinds (the kinds' values).
_KEY_L2_L1 = SwitchKind.PVM_L2_L1.value
_KEY_DIRECT = SwitchKind.PVM_DIRECT.value


class Switcher:
    """The switcher: world-switch engine between L2 and the PVM hypervisor.

    Each leg reads its cost from attributes fixed at construction and
    adds it to ``clock.now`` directly: the :class:`CostModel` validated
    every constant as a non-negative int, so ``Clock.advance``'s check
    could never fire.  Each leg counts its switch (and L1 exit) in
    place, in counters bound here, and appends the same events to a
    detailed trace.
    """

    def __init__(self, costs: CostModel, events: EventLog) -> None:
        self.costs = costs
        self.events = events
        self._switch_counts = events.world_switches
        self._exit_counts = events.l1_exits
        self._trace = events.trace if events.detailed else None
        self._states: Dict[int, SwitcherState] = {}
        self._world_switch_ns = costs.pvm_world_switch
        self._to_kernel_ns = costs.ring_transition + costs.direct_switch_extra
        self._to_user_ring_ns = costs.direct_switch_extra
        #: The customized IDT mapped over the guest's IDTR target.
        self.idt = Idt(default_site=HandlerSite.SWITCHER)
        self.idt.point_all_to_switcher()
        #: Invoked after every switch that loads a guest CR3.  The PVM
        #: machine installs a TLB-flush callback here when PCID mapping
        #: is disabled: without per-process PCIDs, the CR3 load cannot
        #: set NOFLUSH and the guest's translations are wiped each time
        #: (the "cold-start penalty" of §3.3.2).
        self.on_guest_cr3_load: Optional[Callable[[Clock, int], None]] = None

    def state_for(self, cpu_id: int) -> SwitcherState:
        """The per-CPU switcher state (created on first use)."""
        state = self._states.get(cpu_id)
        if state is None:
            state = SwitcherState(cpu_id=cpu_id)
            self._states[cpu_id] = state
        return state

    def entry_va(self, cpu_id: int) -> int:
        """Virtual address of this CPU's entry area (Figure 6 layout)."""
        return SWITCHER_BASE_VA + cpu_id * PUD_SIZE

    # -- VM exit / entry ----------------------------------------------------

    def vm_exit(self, clock: Clock, cpu_id: int, reason: str) -> SwitcherState:
        """to_hypervisor: L2 (user or kernel) -> PVM hypervisor.

        One PVM world switch: ring transition into the switcher, guest
        state saved to the per-CPU switcher state, host state restored,
        general-purpose registers cleared.
        """
        state = self._states.get(cpu_id) or self.state_for(cpu_id)
        state.saves += 1
        state.restores += 1
        state.regs_cleared = True
        state.world = _HYPERVISOR
        clock.now += self._world_switch_ns
        self._switch_counts[_KEY_L2_L1] += 1
        self._exit_counts[reason] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, cpu_id, "switch", _KEY_L2_L1))
            trace.append(TraceEvent(clock.now, cpu_id, "l1_exit", reason))
        return state

    def vm_enter(self, clock: Clock, cpu_id: int,
                 world: GuestWorld = GuestWorld.USER) -> SwitcherState:
        """enter_guest: PVM hypervisor -> L2 (user or kernel).

        The symmetric switch: host state saved, guest state restored from
        the switcher state, and RFLAGS.IF enabled in the iret frame so
        hardware interrupts reach h_ring3 (§3.3.3).
        """
        if world is _HYPERVISOR:
            raise ValueError("vm_enter targets a guest world")
        state = self._states.get(cpu_id) or self.state_for(cpu_id)
        state.world = world
        clock.now += self._world_switch_ns
        self._switch_counts[_KEY_L2_L1] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(clock.now, cpu_id, "switch", _KEY_L2_L1))
        if self.on_guest_cr3_load is not None:
            self.on_guest_cr3_load(clock, cpu_id)
        return state

    # -- direct switch ---------------------------------------------------------

    def direct_switch_to_user(self, clock: Clock, cpu_id: int,
                              at_user_ring: bool = False) -> SwitcherState:
        """sysret hypercall fast path: L2 kernel -> L2 user, handled
        entirely inside the switcher (no hypervisor), then the CR3-load
        hook: the leg loaded the user's guest CR3.

        With ``at_user_ring`` (the §5 *advanced* direct switch), the
        sysret completes at h_ring3 without re-entering h_ring0 at all,
        saving the ring transition — only the frame/CR3 work remains.
        """
        state = self._states.get(cpu_id) or self.state_for(cpu_id)
        if state.world is not _KERNEL:
            raise RuntimeError("direct switch to user requires v_ring0")
        state.world = _USER
        # Without the h_ring3 sysret the leg costs what the way in does.
        clock.now += (self._to_user_ring_ns if at_user_ring
                      else self._to_kernel_ns)
        self._switch_counts[_KEY_DIRECT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(clock.now, cpu_id, "switch", _KEY_DIRECT))
        if self.on_guest_cr3_load is not None:
            self.on_guest_cr3_load(clock, cpu_id)
        return state

    def direct_syscall(self, clock: Clock, cpu_id: int,
                       at_user_ring: bool = False) -> SwitcherState:
        """Syscall fast path (Figure 8): one round trip L2 user -> L2
        kernel -> L2 user without hypervisor intervention, in one call.

        The way in emulates the syscall instruction: swaps the guest's
        user/kernel hardware CR3s, switches cpl/stack/gs_base, and
        builds a syscall frame the L2 kernel returns through; the way
        out is :meth:`direct_switch_to_user`'s leg.  Each leg is followed
        by the CR3-load hook.  The vCPU starts and ends in v_ring3.
        """
        state = self._states.get(cpu_id) or self.state_for(cpu_id)
        if state.world is not _USER:
            raise RuntimeError("direct switch to kernel requires v_ring3")
        hook, trace = self.on_guest_cr3_load, self._trace
        clock.now += self._to_kernel_ns
        if trace is not None:
            trace.append(TraceEvent(clock.now, cpu_id, "switch", _KEY_DIRECT))
        if hook is not None:
            hook(clock, cpu_id)
        clock.now += (self._to_user_ring_ns if at_user_ring
                      else self._to_kernel_ns)
        if trace is not None:
            trace.append(TraceEvent(clock.now, cpu_id, "switch", _KEY_DIRECT))
        if hook is not None:
            hook(clock, cpu_id)
        self._switch_counts[_KEY_DIRECT] += 2
        return state
