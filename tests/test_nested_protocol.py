"""Direct tests of the nested-VMX protocol legs (repro.hypervisors.nested)."""

import pytest

from repro import make_machine
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import diff_snapshots


@pytest.fixture
def machine():
    return make_machine("kvm-ept (NST)")


class TestProtocolLegs:
    def test_l2_exit_to_l1_cost_is_the_paper_anchor(self, machine):
        ctx = machine.new_context()
        machine.l2_exit_to_l1(ctx, "probe")
        # exit + forward + entry = the 1.3 us of §2.2.
        assert ctx.clock.now == 1300

    def test_l1_resume_l2_dominated_by_merge(self, machine):
        ctx = machine.new_context()
        machine.l1_resume_l2(ctx)
        assert ctx.clock.now == (
            2 * DEFAULT_COSTS.hw_world_switch + DEFAULT_COSTS.vmcs_merge_reload
        )

    def test_each_leg_counts_one_trap(self, machine):
        ctx = machine.new_context()
        before = machine.events.snapshot()
        machine.l2_exit_to_l1(ctx, "probe")
        machine.l1_l0_service(ctx, 100, "svc")
        machine.l2_l0_roundtrip(ctx, 100, "direct")
        machine.l1_resume_l2(ctx)
        delta = diff_snapshots(before, machine.events.snapshot())
        assert delta["l0_exits"]["total"] == 4
        assert delta["world_switches"]["total"] == 8

    def test_forwarding_queues_injection(self, machine):
        pending_before = len(machine.vmcs01.pending)
        ctx = machine.new_context()
        machine.l2_exit_to_l1(ctx, "#PF")
        assert len(machine.vmcs01.pending) == pending_before + 1

    def test_resume_merges_vmcs(self, machine):
        ctx = machine.new_context()
        machine.vmcs12.guest_cr3_frame = 0x77
        machine.vmcs12.write()
        assert machine.vmcs_shadow.stale
        machine.l1_resume_l2(ctx)
        assert not machine.vmcs_shadow.stale
        assert machine.vmcs_shadow.vmcs02.guest_cr3_frame == 0x77

    def test_legs_serialize_on_l0(self, machine):
        """Two vCPUs' nested resumes share the L0 service lock."""
        c1 = machine.new_context()
        c2 = machine.new_context()
        machine.l1_resume_l2(c1)
        machine.l1_resume_l2(c2)
        # c2 waited for c1's merge window.
        assert c2.clock.now > c1.clock.now

    def test_nested_roundtrip_composition(self, machine):
        ctx = machine.new_context()
        machine.nested_privileged_roundtrip(ctx, handler_ns=0, reason="x")
        expected = (
            2 * DEFAULT_COSTS.hw_world_switch + DEFAULT_COSTS.l0_forward_overhead
            + 2 * DEFAULT_COSTS.hw_world_switch + DEFAULT_COSTS.vmcs_merge_reload
        )
        assert ctx.clock.now == expected


@pytest.mark.parametrize("scenario", ["kvm-ept (NST)", "kvm-spt (NST)"])
def test_resume_drains_forwarded_injections(scenario):
    """Each forwarded L2 exit queues its event in VMCS01 until L1
    resumes L2; the resume drains it, so the queue does not grow with
    the number of round trips, and VMCS02 is left as it was."""
    m = make_machine(scenario)
    ctx = m.new_context()
    fields = ("guest_cr3_frame", "guest_pcid", "eptp_frame", "vpid",
              "pending", "generation")
    vmcs02 = m.vmcs_shadow.vmcs02
    before = {f: getattr(vmcs02, f) for f in fields}
    before["pending"] = list(before["pending"])
    for _ in range(1000):
        m.nested_privileged_roundtrip(ctx, handler_ns=0, reason="x")
    assert m.vmcs01.pending == []
    assert {f: getattr(vmcs02, f) for f in fields} == before


class TestCapabilityGating:
    def test_nested_machines_require_vmx(self):
        """init_nested_vmx checks the host exposes (emulated) VMX."""
        m = make_machine("kvm-ept (NST)")
        assert m.caps.vmx

    def test_pvm_carries_no_vmcs(self):
        m = make_machine("pvm (NST)")
        assert not hasattr(m, "vmcs_shadow")
        assert not hasattr(m, "vmcs01")
