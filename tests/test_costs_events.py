"""Unit tests for the cost model and event accounting."""

import copy
import pickle

import pytest

from repro import make_machine
from repro.guest.syscalls import Syscall
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.events import (
    Counter,
    EventLog,
    FaultPhase,
    SwitchKind,
    TraceEvent,
    diff_snapshots,
)
from repro.sim.clock import Clock
from repro.sim.locks import SimLock


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
        c["a"] += 2
        c["b"] += 3
        assert c.total == 5
        assert c == {"a": 2, "b": 3}
        assert c.name == "x"

    def test_reset(self):
        """``EventLog.reset`` clears every counter in place, so a counter
        bound at construction stays live."""
        log = EventLog()
        bound = log.hypercalls
        bound["iret"] += 1
        log.reset()
        assert log.hypercalls is bound and bound.total == 0
        bound["iret"] += 1
        assert log.snapshot()["hypercalls"] == {"total": 1, "iret": 1}

    def test_missing_key_reads_zero_and_inserts_nothing(self):
        log = EventLog()
        log.page_faults[FaultPhase.GUEST_PT.value] += 1
        before = log.snapshot()
        assert log.page_faults[FaultPhase.SHADOW_PT.value] == 0
        assert FaultPhase.SHADOW_PT.value not in log.page_faults
        assert log.snapshot() == before

    def test_pickle_and_deepcopy_round_trip(self):
        log = EventLog()
        log.world_switches[SwitchKind.PVM_L2_L1.value] += 2
        for copied in (pickle.loads(pickle.dumps(log)), copy.deepcopy(log)):
            assert copied.snapshot() == log.snapshot()
            counter = copied.world_switches
            assert type(counter) is Counter
            assert counter.name == "world_switches"
            assert counter["missing"] == 0 and "missing" not in counter
            counter[SwitchKind.PVM_L2_L1.value] += 1
            assert log.world_switches.total == 2


def _machine(scenario="kvm-ept (BM)", events=None):
    m = make_machine(scenario, events=events)
    return m, m.new_context(), m.spawn_process()


class TestEventLog:
    def test_switch_accounting(self):
        """Guest-internal transitions are not world switches, and a
        switch alone is not an L0 trap."""
        m, ctx, proc = _machine()
        m.syscall(ctx, proc, "get_pid")
        m.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        assert m.events.guest_transitions == {SwitchKind.GUEST_INTERNAL.value: 2}
        assert m.events.world_switches == {SwitchKind.HW_L1_L0.value: 1}
        assert m.events.l0_exits.total == 0

    def test_l0_trap_explicit(self):
        m, ctx, _ = _machine()
        m.halt(ctx, 0)
        assert m.events.l0_exits == {"hlt": 1}
        assert m.events.world_switches.total == 2

    def test_detailed_trace(self):
        m, _, _ = _machine(events=EventLog(detailed=True))
        m.new_context()
        m.hypercall(m.contexts[1])
        assert [(ev.vcpu, ev.kind) for ev in m.events.trace] == [
            (1, "switch"), (1, "switch")]

    def test_trace_off_by_default(self):
        m, ctx, proc = _machine("pvm (NST)")
        m.touch(ctx, proc, m.mmap(ctx, proc, 1 << 16).start_vpn, write=True)
        m.hypercall(ctx)
        assert m.events.trace == []
        assert m.events.world_switches.total > 0

    def test_fault_phases(self):
        m, ctx, proc = _machine("kvm-spt (BM)", events=EventLog(detailed=True))
        m.touch(ctx, proc, m.mmap(ctx, proc, 1 << 16).start_vpn, write=True)
        assert m.events.page_faults == {FaultPhase.GUEST_PT.value: 1,
                                        FaultPhase.SHADOW_PT.value: 1}
        assert [ev.detail for ev in m.events.trace if ev.kind == "fault"] == [
            FaultPhase.GUEST_PT.value, FaultPhase.SHADOW_PT.value]

    def test_snapshot_and_reset(self):
        log = EventLog()
        log.hypercalls["iret"] += 1
        snap = log.snapshot()
        assert snap["hypercalls"]["iret"] == 1
        log.reset()
        assert log.snapshot()["hypercalls"]["total"] == 0

    def test_lock_wait_ignores_zero(self):
        """``SimLock`` counts only real waits: an uncontended acquisition
        adds no key."""
        log = EventLog()
        lock = SimLock("l", log)
        assert lock.run_locked(Clock(), 7) == 0
        assert "l" not in log.lock_wait_ns
        assert lock.run_locked(Clock(), 1) == 7
        assert log.lock_wait_ns == {"l": 7}


class TestDiffSnapshots:
    def test_delta(self):
        log = EventLog()
        log.hypercalls["a"] += 1
        before = log.snapshot()
        log.hypercalls["a"] += 1
        log.hypercalls["b"] += 1
        delta = diff_snapshots(before, log.snapshot())
        assert delta["hypercalls"] == {"total": 2, "a": 1, "b": 1}

    def test_zero_deltas_dropped(self):
        log = EventLog()
        log.hypercalls["a"] += 1
        snap = log.snapshot()
        assert diff_snapshots(snap, snap)["hypercalls"] == {}


class TestChromeTraceExport:
    def test_export_roundtrip(self, tmp_path):
        import json

        from repro.hw.events import export_chrome_trace

        log = EventLog(detailed=True)
        log.trace.append(TraceEvent(1500, 2, "switch", SwitchKind.PVM_L2_L1.value))
        log.trace.append(TraceEvent(2500, 2, "fault", FaultPhase.GUEST_PT.value))
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
