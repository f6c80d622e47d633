"""Unit tests for the cost model and event accounting."""

import pytest

from repro.guest.syscalls import Syscall
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.events import (
    Counter,
    EventLog,
    FaultPhase,
    SwitchKind,
    diff_snapshots,
)
from repro.sim.clock import Clock


class TestCostModel:
    def test_paper_anchors(self):
        """The three world-switch anchors from the paper (§2.2, §3.3.2)."""
        d = DEFAULT_COSTS.derived()
        assert DEFAULT_COSTS.hw_world_switch == 105
        assert DEFAULT_COSTS.pvm_world_switch == 179
        assert d["nested_l2_l1_switch"] == 1300

    def test_table1_hypercall_anchors(self):
        d = DEFAULT_COSTS.derived()
        # kvm (BM) hypercall round trip ~0.46 us.
        assert abs(d["hw_roundtrip_hypercall"] - 460) <= 20
        # pvm hypercall round trip ~0.48 us.
        assert abs(d["pvm_roundtrip_hypercall"] - 480) <= 20

    def test_nested_roundtrip_dominated_by_merge(self):
        d = DEFAULT_COSTS.derived()
        assert d["nested_l1_l2_resume"] > 3 * d["nested_l2_l1_switch"]

    def test_with_overrides(self):
        c = DEFAULT_COSTS.with_overrides(pvm_world_switch=500)
        assert c.pvm_world_switch == 500
        assert DEFAULT_COSTS.pvm_world_switch == 179  # frozen original

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.pvm_world_switch = 1

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            DEFAULT_COSTS.with_overrides(not_a_cost=1)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "179"])
    def test_constants_must_be_non_negative_ints(self, bad):
        # Validated once here, so the switch legs add costs to clocks
        # without a per-call check.
        with pytest.raises(ValueError, match="pvm_world_switch"):
            DEFAULT_COSTS.with_overrides(pvm_world_switch=bad)
        with pytest.raises(ValueError):
            CostModel(hw_world_switch=bad)

    def test_zero_cost_allowed(self):
        assert DEFAULT_COSTS.with_overrides(vmcs_merge_reload=0).vmcs_merge_reload == 0

    def test_clock_advance_still_rejects_negative(self):
        # Workload-supplied durations (e.g. HLT wake delays) still go
        # through Clock.advance and its check.
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        assert clock.now == 0


class TestSyscallTable:
    @pytest.mark.parametrize("field", ["body_ns", "extra_transitions",
                                       "pte_writes"])
    @pytest.mark.parametrize("bad", [-1, 0.5])
    def test_fields_must_be_non_negative_ints(self, field, bad):
        kwargs = {"name": "x", "body_ns": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            Syscall(**kwargs)


class TestCounter:
    def test_add_and_keys(self):
        c = Counter("x")
        c.add(2, key="a")
        c.add(3, key="b")
        c.add(1)
        assert c.total == 6
        assert c.get("a") == 2
        assert c.get("missing") == 0

    def test_reset(self):
        c = Counter("x")
        c.add(5, key="a")
        c.reset()
        assert c.total == 0
        assert c.by_key == {}


class TestEventLog:
    def test_switch_accounting(self):
        log = EventLog()
        log.switch(SwitchKind.PVM_L2_L1)
        log.switch(SwitchKind.HW_L2_L0)
        log.switch(SwitchKind.GUEST_INTERNAL)
        assert log.world_switches.total == 2
        assert log.guest_transitions.total == 1
        assert log.world_switches.get(SwitchKind.PVM_L2_L1.value) == 1
        # Switches alone do not count as L0 traps.
        assert log.l0_exits.total == 0

    def test_l0_trap_explicit(self):
        log = EventLog()
        log.l0_trap("vmresume")
        assert log.l0_exits.total == 1
        assert log.l0_exits.get("vmresume") == 1

    def test_detailed_trace(self):
        log = EventLog(detailed=True)
        log.switch(SwitchKind.PVM_DIRECT, time_ns=5, vcpu=2)
        assert len(log.trace) == 1
        assert log.trace[0].vcpu == 2

    def test_trace_off_by_default(self):
        log = EventLog()
        log.switch(SwitchKind.PVM_DIRECT)
        assert log.trace == []

    def test_fault_phases(self):
        log = EventLog()
        log.fault(FaultPhase.GUEST_PT)
        log.fault(FaultPhase.SHADOW_PT)
        log.fault(FaultPhase.SHADOW_PT)
        assert log.page_faults.get(FaultPhase.SHADOW_PT.value) == 2

    def test_snapshot_and_reset(self):
        log = EventLog()
        log.hypercall("iret")
        snap = log.snapshot()
        assert snap["hypercalls"]["iret"] == 1
        log.reset()
        assert log.snapshot()["hypercalls"]["total"] == 0

    def test_lock_wait_ignores_zero(self):
        log = EventLog()
        log.lock_wait("l", 0)
        assert log.lock_wait_ns.total == 0
        log.lock_wait("l", 7)
        assert log.lock_wait_ns.get("l") == 7


class TestDiffSnapshots:
    def test_delta(self):
        log = EventLog()
        log.hypercall("a")
        before = log.snapshot()
        log.hypercall("a")
        log.hypercall("b")
        delta = diff_snapshots(before, log.snapshot())
        assert delta["hypercalls"] == {"total": 2, "a": 1, "b": 1}

    def test_zero_deltas_dropped(self):
        log = EventLog()
        log.hypercall("a")
        snap = log.snapshot()
        assert diff_snapshots(snap, snap)["hypercalls"] == {}


class TestChromeTraceExport:
    def test_export_roundtrip(self, tmp_path):
        import json

        from repro.hw.events import export_chrome_trace

        log = EventLog(detailed=True)
        log.switch(SwitchKind.PVM_L2_L1, time_ns=1500, vcpu=2)
        log.fault(FaultPhase.GUEST_PT, time_ns=2500, vcpu=2)
        path = tmp_path / "trace.json"
        n = export_chrome_trace(log, str(path))
        assert n == 2
        payload = json.loads(path.read_text())
        assert payload["traceEvents"][0]["ts"] == 1.5  # us
        assert payload["traceEvents"][0]["tid"] == 2

    def test_requires_detailed(self, tmp_path):
        from repro.hw.events import export_chrome_trace

        with pytest.raises(ValueError):
            export_chrome_trace(EventLog(), str(tmp_path / "x.json"))

    def test_full_fault_trace_exports(self, tmp_path):
        from repro import make_machine
        from repro.hw.events import export_chrome_trace

        log = EventLog(detailed=True)
        m = make_machine("pvm (NST)", events=log)
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 1 << 16)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        n = export_chrome_trace(log, str(tmp_path / "t.json"))
        assert n > 5
