"""Unit tests for the PVM switcher (§3.2)."""

import pytest

from repro.core.switcher import (
    PUD_SIZE,
    SWITCHER_BASE_VA,
    GuestWorld,
    Switcher,
    SwitcherState,
)
from repro.guest.interrupts import HandlerSite, Vector
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog, SwitchKind
from repro.sim.clock import Clock


@pytest.fixture
def switcher():
    return Switcher(DEFAULT_COSTS, EventLog())


class TestLayout:
    def test_per_cpu_entry_areas_disjoint(self, switcher):
        assert switcher.entry_va(0) == SWITCHER_BASE_VA
        assert switcher.entry_va(1) - switcher.entry_va(0) == PUD_SIZE

    def test_state_per_cpu(self, switcher):
        s0 = switcher.state_for(0)
        s1 = switcher.state_for(1)
        assert s0 is not s1
        assert switcher.state_for(0) is s0

    def test_idt_points_to_switcher(self, switcher):
        sites = switcher.idt.sites()
        assert all(site is HandlerSite.SWITCHER for site in sites.values())
        assert Vector.PAGE_FAULT in sites


class TestVmExitEntry:
    def test_exit_cost_and_accounting(self, switcher):
        clock = Clock()
        state = switcher.vm_exit(clock, 0, "#PF")
        assert clock.now == DEFAULT_COSTS.pvm_world_switch
        assert state.world is GuestWorld.HYPERVISOR
        assert switcher.events.l1_exits["#PF"] == 1
        assert switcher.events.world_switches[SwitchKind.PVM_L2_L1.value] == 1

    def test_registers_cleared_on_exit(self, switcher):
        """Security invariant (§3.2): GPRs cleared on every VM exit — the
        clearing is part of the one world switch each exit charges."""
        clock = Clock()
        state = switcher.vm_exit(clock, 0, "x")
        assert state.world is GuestWorld.HYPERVISOR
        assert clock.now == DEFAULT_COSTS.pvm_world_switch

    def test_state_save_restore_counted(self, switcher):
        """One guest-state save and one host-state restore per exit: the
        exit's one switch and one L1 exit in the EventLog."""
        switcher.vm_exit(Clock(), 0, "x")
        events = switcher.events
        assert events.world_switches == {SwitchKind.PVM_L2_L1.value: 1}
        assert events.l1_exits == {"x": 1}

    def test_enter_worlds(self, switcher):
        clock = Clock()
        switcher.vm_exit(clock, 0, "x")
        state = switcher.vm_enter(clock, 0, GuestWorld.KERNEL)
        assert state.world is GuestWorld.KERNEL
        assert clock.now == 2 * DEFAULT_COSTS.pvm_world_switch

    def test_enter_hypervisor_rejected(self, switcher):
        with pytest.raises(ValueError):
            switcher.vm_enter(Clock(), 0, GuestWorld.HYPERVISOR)


class TestDirectSwitch:
    def _set_world(self, switcher, world, cpu=0):
        switcher.state_for(cpu).world = world

    def test_syscall_fast_path_cost(self, switcher):
        self._set_world(switcher, GuestWorld.USER)
        clock = Clock()
        state = switcher.direct_syscall(clock, 0)
        expected = 2 * (DEFAULT_COSTS.ring_transition
                        + DEFAULT_COSTS.direct_switch_extra)
        assert clock.now == expected
        assert state.world is GuestWorld.USER
        assert switcher.events.world_switches[SwitchKind.PVM_DIRECT.value] == 2

    def test_direct_switch_requires_correct_world(self, switcher):
        self._set_world(switcher, GuestWorld.USER)
        with pytest.raises(RuntimeError):
            switcher.direct_switch_to_user(Clock(), 0)  # not in kernel
        self._set_world(switcher, GuestWorld.KERNEL)
        with pytest.raises(RuntimeError):
            switcher.direct_syscall(Clock(), 0)  # not in user
        state = switcher.direct_switch_to_user(Clock(), 0)
        assert state.world is GuestWorld.USER

    def test_direct_switch_counts_as_pvm_direct(self, switcher):
        self._set_world(switcher, GuestWorld.KERNEL)
        switcher.direct_switch_to_user(Clock(), 0)
        assert switcher.events.world_switches[SwitchKind.PVM_DIRECT.value] == 1
        switcher.direct_syscall(Clock(), 0)
        assert switcher.events.world_switches[SwitchKind.PVM_DIRECT.value] == 3

    def test_cr3_load_hook_fires(self, switcher):
        fired = []
        switcher.on_guest_cr3_load = lambda clock, cpu: fired.append(cpu)
        self._set_world(switcher, GuestWorld.USER, cpu=3)
        clock = Clock()
        switcher.direct_syscall(clock, 3)  # both legs load a guest CR3
        assert fired == [3, 3]
        switcher.vm_exit(clock, 3, "x")  # exit loads *host* CR3: no fire
        switcher.vm_enter(clock, 3, GuestWorld.KERNEL)
        switcher.direct_switch_to_user(clock, 3)
        assert fired == [3, 3, 3, 3]


class TestSwitcherState:
    def test_dataclass_defaults(self):
        s = SwitcherState(cpu_id=0)
        assert s.world is GuestWorld.HYPERVISOR
        assert s.shared_if.interrupts_enabled
