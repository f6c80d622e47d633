"""Memory-QoS tests: working-set estimation, watermark reclaim,
admission control, priority eviction, and the overcommit determinism
gate (mirroring the chaos gate)."""

import pytest

from repro import make_machine
from repro.bench import experiments
from repro.containers.runtime import AdmissionError, RunDRuntime
from repro.faults import SITE_MEMORY_PRESSURE, FaultPlan
from repro.hw.types import MIB
from repro.hypervisors.base import MachineConfig
from repro.memory.qos import MemoryQosConfig, ReclaimDaemon
from repro.sim.stats import PressureStats
from repro.memory.wse import WorkingSetEstimator
from repro.workloads.memalloc import memalloc


class TestWorkingSetEstimator:
    def test_first_sample_is_raw(self):
        wse = WorkingSetEstimator(alpha=0.5)
        assert wse.update("a", 10) == 10.0
        assert wse.working_set("a") == 10.0

    def test_ewma_smoothing(self):
        wse = WorkingSetEstimator(alpha=0.5)
        wse.update("a", 10)
        assert wse.update("a", 0) == 5.0
        assert wse.update("a", 0) == 2.5

    def test_idle_pages(self):
        wse = WorkingSetEstimator(alpha=0.5)
        wse.update("a", 10)
        assert wse.idle_pages("a", 30) == 20
        wse.update("a", 0)  # est 5.0
        assert wse.idle_pages("a", 30) == 25

    def test_never_sampled_reports_zero_idle(self):
        wse = WorkingSetEstimator()
        assert wse.idle_pages("ghost", 1000) == 0

    def test_idle_never_negative(self):
        wse = WorkingSetEstimator()
        wse.update("a", 50)
        assert wse.idle_pages("a", 10) == 0

    def test_forget(self):
        wse = WorkingSetEstimator()
        wse.update("a", 10)
        wse.forget("a")
        assert wse.idle_pages("a", 30) == 0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            WorkingSetEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            WorkingSetEstimator(alpha=1.5)


class TestMemoryQosConfig:
    def test_watermark_ordering_enforced(self):
        with pytest.raises(ValueError):
            MemoryQosConfig(min_watermark=0.2, low_watermark=0.1)
        with pytest.raises(ValueError):
            MemoryQosConfig(high_watermark=0.1, low_watermark=0.12)

    def test_overcommit_ratio_positive(self):
        with pytest.raises(ValueError):
            MemoryQosConfig(overcommit_ratio=0.0)


@pytest.mark.pressure
class TestWorkingSetHarvest:
    """A-bit scan-and-clear through each machine's own tables."""

    @pytest.mark.parametrize("name", ["kvm-ept (BM)", "kvm-spt (BM)",
                                      "pvm (NST)", "kvm-spt (NST)",
                                      "pvm-dp (NST)"])
    def test_harvest_sees_touches_then_clears(self, name):
        m = make_machine(name)
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 16 << 12)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        accessed, scanned = m.harvest_working_set(ctx)
        assert accessed >= 16
        assert scanned >= accessed
        # A-bits were cleared and caches flushed: an idle interval
        # harvests nothing.
        accessed2, _ = m.harvest_working_set(ctx)
        assert accessed2 == 0
        # Re-touching re-walks (flushed) and re-marks.
        m.touch(ctx, proc, vma.start_vpn, write=True)
        accessed3, _ = m.harvest_working_set(ctx)
        assert accessed3 >= 1

    def test_scan_charges_guest_time(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 8 << 12)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        t0 = ctx.clock.now
        _, scanned = m.harvest_working_set(ctx)
        assert scanned > 0
        assert ctx.clock.now - t0 >= scanned * m.costs.wse_scan_per_entry

    def test_scan_never_materializes_shadow_state(self):
        m = make_machine("pvm (NST)")
        m.new_context()
        proc = m.spawn_process()  # never touched: no shadow tables yet
        tables = m.accessed_bit_tables(proc)
        assert tables == []


def _qos_runtime(ratio=1.0, host_mib=64, guest_mib=32, plan=None, **qos_kw):
    cfg = MachineConfig(host_mem_bytes=host_mib * MIB,
                        guest_mem_bytes=guest_mib * MIB)
    return RunDRuntime(
        "pvm (NST)", config=cfg, fault_plan=plan,
        memory_qos=MemoryQosConfig(overcommit_ratio=ratio, **qos_kw),
    )


@pytest.mark.pressure
class TestAdmissionControl:
    def test_over_limit_launch_raises(self):
        rt = _qos_runtime(ratio=1.0)  # 64 MiB host, 32 MiB guests
        rt.launch()
        rt.launch()
        with pytest.raises(AdmissionError):
            rt.launch()

    def test_overcommit_ratio_extends_limit(self):
        rt = _qos_runtime(ratio=1.5)
        for _ in range(3):
            rt.launch()
        with pytest.raises(AdmissionError):
            rt.launch()

    def test_run_fleet_queues_instead_of_failing(self):
        plan = FaultPlan(seed=11)
        rt = _qos_runtime(ratio=1.0, plan=plan)
        res = rt.run_fleet(4, memalloc, total_bytes=4 * MIB)
        assert rt.pressure.admissions_deferred >= 2
        assert rt.pressure.admissions_admitted == 4
        assert res.recovery.gave_up == 0
        assert res.recovery.boot_failures == 0
        assert len(res.completions_ns) == 4

    def test_admission_released_at_retirement(self):
        plan = FaultPlan(seed=11)
        rt = _qos_runtime(ratio=1.0, plan=plan)
        rt.run_fleet(4, memalloc, total_bytes=4 * MIB)
        assert rt._admitted_frames == 0
        assert {m.state for m in rt._members} == {"done"}
        assert all(c.machine.resident_guest_pages() == 0
                   for c in rt.containers)

    def test_queued_members_start_later(self):
        plan = FaultPlan(seed=11)
        rt = _qos_runtime(ratio=1.0, plan=plan)
        res = rt.run_fleet(4, memalloc, total_bytes=4 * MIB)
        # Two members were admitted immediately; two waited for the
        # early finishers to retire, so completions split in two waves.
        first = sorted(res.completions_ns)[:2]
        last = sorted(res.completions_ns)[2:]
        assert min(last) > max(first)

    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=0)])
    def test_never_admittable_fleet(self, plan):
        # One guest is larger than the whole admission limit, so no
        # retirement can ever make room: both members fail to boot.
        rt = RunDRuntime(
            "pvm (NST)",
            config=MachineConfig(host_mem_bytes=8 * MIB,
                                 guest_mem_bytes=16 * MIB),
            fault_plan=plan, memory_qos=MemoryQosConfig(),
        )
        if plan is None:
            with pytest.raises(AdmissionError):
                rt.run_fleet(2, memalloc, total_bytes=MIB)
            assert rt.containers == []
            return
        res = rt.run_fleet(2, memalloc, total_bytes=MIB)
        assert res.makespan_ns >= 0
        assert res.completions_ns == []
        assert res.recovery.boot_failures == 2
        assert [m.state for m in rt._members] == ["boot-failed"] * 2


@pytest.mark.pressure
class TestReclaimAndEviction:
    def _harsh(self, seed=7):
        plan = FaultPlan(seed=seed)
        plan.add(SITE_MEMORY_PRESSURE, probability=0.6)
        return _qos_runtime(
            ratio=2.0, plan=plan,
            evict_after_rounds=1,
            spike_frac_lo=0.35, spike_frac_hi=0.5,
            spike_hold_ns=30_000_000,
        )

    def test_watermark_reclaim_balloons_guests(self):
        rt = self._harsh()
        res = rt.run_fleet(6, memalloc, total_bytes=24 * MIB)
        p = rt.pressure
        assert p.wse_scans > 0
        assert p.pressure_spikes > 0
        assert p.reclaim_rounds > 0
        assert p.frames_reclaimed > 0
        assert res.counters["memory_pressure"]["reclaim"] > 0

    def test_eviction_is_restartable_zero_abandoned(self):
        rt = self._harsh()
        res = rt.run_fleet(6, memalloc, total_bytes=24 * MIB)
        p, r = rt.pressure, res.recovery
        assert p.evictions >= 1
        assert r.crashes.get("evicted", 0) == p.evictions
        # Budget-exempt: every evicted guest restarted; nobody abandoned.
        assert r.restarts >= p.evictions
        assert r.gave_up == 0
        assert len(res.completions_ns) == 6

    def test_eviction_needs_a_supervisor(self):
        # Without a fault plan there is no supervisor to carry out an
        # eviction, so the daemon must not orphan a victim.
        rt = _qos_runtime(
            ratio=2.0, evict_after_rounds=1,
            spike_frac_lo=0.35, spike_frac_hi=0.5,
        )
        rt.run_fleet(4, memalloc, total_bytes=8 * MIB)
        assert rt.pressure.evictions == 0
        assert rt.evicting == frozenset()

    def test_eviction_ties_break_on_launch_order_not_id(self):
        # Ids are labels only: equal-priority victims are ordered by
        # launch sequence, whatever the ids look like.
        rt = _qos_runtime(ratio=2.0, plan=FaultPlan(seed=1))
        first, second = rt.launch(), rt.launch()
        first.container_id, second.container_id = "web", "db-primary"
        daemon = ReclaimDaemon(rt, rt.memory_qos, PressureStats(), watched=[])
        daemon._evict([first, second])
        assert rt.evicting == frozenset({"db-primary"})
        # Priority still comes first: a lower-priority earlier launch
        # is chosen over the latest one.
        rt2 = _qos_runtime(ratio=2.0, plan=FaultPlan(seed=1))
        low, high = rt2.launch(priority=-1), rt2.launch()
        low.container_id = "batch"
        ReclaimDaemon(rt2, rt2.memory_qos, PressureStats(),
                      watched=[])._evict([high, low])
        assert rt2.evicting == frozenset({"batch"})

    def test_deflate_on_relief_returns_frames(self):
        rt = self._harsh()
        rt.run_fleet(6, memalloc, total_bytes=24 * MIB)
        assert rt.pressure.frames_returned > 0


@pytest.mark.pressure
class TestQosOffIsInert:
    def test_no_qos_no_state(self):
        rt = RunDRuntime("pvm (NST)")
        assert rt.host_phys is None
        assert rt.pressure is None
        for _ in range(4):  # no admission limit at all
            rt.launch()
        rt.stop_all()

    def test_fleet_without_qos_unchanged_shape(self):
        rt = RunDRuntime("pvm (NST)")
        res = rt.run_fleet(2, memalloc, total_bytes=2 * MIB)
        assert res.recovery is None
        assert len(res.completions_ns) == 2


# ---------------------------------------------------------------------------
# Overcommit experiment determinism gate (mirrors the chaos gate)
# ---------------------------------------------------------------------------


@pytest.mark.pressure
class TestOvercommitExperiment:
    def test_same_seed_bit_identical(self):
        a = experiments.overcommit(scale=0.25)
        b = experiments.overcommit(scale=0.25)
        assert a.as_dict() == b.as_dict()

    def test_explicit_seed_diverges_and_is_deterministic(self):
        # Full scale on the dense point only: short scaled runs finish
        # before any pressure spike fires, leaving nothing seed-driven.
        a = experiments.overcommit.row("1.5x", 1.0, seed=77)
        b = experiments.overcommit.row("1.5x", 1.0, seed=77)
        c = experiments.overcommit.row("1.5x", 1.0, seed=78)
        assert a == b
        assert a.values != c.values

    def test_density_sweep_never_abandons(self):
        res = experiments.overcommit(scale=0.25)
        data = res.as_dict()
        assert set(data) == set(experiments.overcommit.keys)
        for row in data.values():
            assert row["gave up"] == 0.0
            assert 0.0 <= row["availability"] <= 1.0

    def test_dense_point_exercises_qos(self):
        res = experiments.overcommit()  # full scale: canonical sweep
        dense = res.as_dict()["1.5x"]
        assert dense["reclaimed MiB"] > 0
        assert dense["evictions"] >= 1
        assert dense["deferrals"] >= 1
        assert dense["restarts"] >= dense["evictions"]
        assert dense["gave up"] == 0.0


@pytest.mark.pressure
@pytest.mark.sanitize
class TestSanitizedOvercommit:
    def test_sweep_clean_and_rows_unchanged(self, monkeypatch):
        monkeypatch.setenv("PVM_SANITIZE", "sampled")
        sanitized = experiments.overcommit(scale=0.25)
        monkeypatch.delenv("PVM_SANITIZE")
        plain = experiments.overcommit(
            scale=0.25, seed=experiments.OVERCOMMIT_DEFAULT_SEED)
        assert sanitized.as_dict() == plain.as_dict()
        assert "0 violations" in sanitized.notes
        checks = int(sanitized.notes.split()[1])
        assert checks > 0
