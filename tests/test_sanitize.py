"""Tests for the runtime sanitizers (``repro.sanitize``).

Covers the three checkers (shadow coherence, lockdep, VMX state
machine), the violation-reporting core, the seeded bug drills (each
sanitizer must catch precisely its planted bug class), the clean-run
no-false-positive gates across the tier-1 workloads and the chaos
recovery scenarios, and the zero-overhead contract: with
``sanitize=False`` nothing is attached, and with it on, clocks and
event counters stay bit-identical.

Also home to the satellite regression tests: ``SimLock.reset`` clearing
``stall_hook``, zero-hold acquisitions charging overhead, and
``Tlb.flush_page`` returning a count.
"""

import pytest

from repro import SCENARIOS, make_machine
from repro.bench import experiments
from repro.hw.events import EventLog
from repro.hw.tlb import Tlb
from repro.hw.types import Asid
from repro.hypervisors.base import MachineConfig
from repro.sanitize import (
    SanitizeReport,
    SanitizerError,
    Violation,
    resolve_mode,
)
from repro.sanitize import selftest
from repro.sanitize.lockdep import LockdepSanitizer
from repro.sim.clock import Clock
from repro.sim.locks import SimLock
from repro.sim.stats import sanitizer_stats
from repro.workloads.apps import APPS

#: Small per-workload iteration knobs so the clean-run sweep stays fast.
WORKLOAD_PARAMS = {
    "kbuild": {"units": 3},
    "blogbench": {"rounds": 5},
    "specjbb2005": {"batches": 6},
    "fluidanimate": {"frames": 4},
}


def _run_workload(scenario, sanitize, mode="full", workload="blogbench"):
    machine = make_machine(
        scenario, config=MachineConfig(sanitize=sanitize, sanitize_mode=mode)
    )
    ctx = machine.new_context()
    proc = machine.spawn_process()
    params = WORKLOAD_PARAMS[workload]
    for _ in APPS[workload](machine, ctx, proc, **params):
        pass
    return machine, ctx


# ---------------------------------------------------------------------------
# Satellite regressions: SimLock and Tlb.flush_page contracts
# ---------------------------------------------------------------------------


class TestSimLockContracts:
    def test_reset_clears_stall_hook(self):
        lock = SimLock("l")
        lock.stall_hook = lambda now: 100
        lock.run_locked(Clock(), 10)
        assert lock.stalls_injected_ns == 100
        lock.reset()
        assert lock.stall_hook is None
        clock = Clock()
        lock.run_locked(clock, 10)
        assert lock.stalls_injected_ns == 0
        assert clock.now == 10

    def test_zero_hold_still_charges_overhead(self):
        lock = SimLock("l")
        clock = Clock()
        lock.run_locked(clock, hold_ns=0, overhead_ns=70)
        assert clock.now == 70  # empty critical section, real acquisition
        assert lock.acquisitions == 1
        assert lock.free_at == 70


class TestFlushPageCount:
    def test_returns_entry_count(self):
        tlb = Tlb()
        asid = Asid(vpid=1, pcid=2)
        tlb.insert(asid, 5, 0x100)
        assert tlb.flush_page(asid, 5) == 1
        assert tlb.flush_page(asid, 5) == 0
        assert isinstance(tlb.flush_page(asid, 5), int)


# ---------------------------------------------------------------------------
# Enablement and reporting core
# ---------------------------------------------------------------------------


@pytest.mark.sanitize
class TestEnablement:
    def test_off_by_default_attaches_nothing(self):
        machine = make_machine("pvm (BM)")
        ctx = machine.new_context()
        assert machine.sanitizers is None
        assert ctx.mmu.sanitizer is None
        assert machine.locks.lockdep is None
        assert sanitizer_stats(machine) == {
            "sanitize_checks": 0.0, "sanitize_violations": 0.0,
        }

    def test_config_enables(self):
        machine = make_machine("pvm (BM)", config=MachineConfig(sanitize=True))
        ctx = machine.new_context()
        suite = machine.sanitizers
        assert suite is not None
        assert ctx.mmu.sanitizer is suite.shadow
        assert machine.locks.lockdep is suite.lockdep
        assert suite.report.mode == "sampled"

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("PVM_SANITIZE", "full")
        machine = make_machine("pvm (BM)")
        machine.new_context()
        assert machine.sanitizers is not None
        assert machine.sanitizers.report.mode == "full"

    def test_resolve_mode(self, monkeypatch):
        monkeypatch.delenv("PVM_SANITIZE", raising=False)
        assert resolve_mode(MachineConfig()) is None
        assert resolve_mode(MachineConfig(sanitize=True)) == "sampled"
        assert resolve_mode(
            MachineConfig(sanitize=True, sanitize_mode="full")) == "full"
        monkeypatch.setenv("PVM_SANITIZE", "1")
        assert resolve_mode(MachineConfig()) == "sampled"
        monkeypatch.setenv("PVM_SANITIZE", "off")
        assert resolve_mode(MachineConfig()) is None

    def test_vmx_checker_only_on_nested_vmx(self):
        nested = make_machine(
            "kvm-ept (NST)", config=MachineConfig(sanitize=True))
        nested.new_context()
        assert nested.sanitizers.vmx is not None
        assert nested.vmcs_shadow.sanitizer is nested.sanitizers.vmx
        bare = make_machine("pvm (BM)", config=MachineConfig(sanitize=True))
        bare.new_context()
        assert bare.sanitizers.vmx is None

    def test_violation_counts_into_event_log(self):
        events = EventLog()
        report = SanitizeReport(events=events)
        with pytest.raises(SanitizerError):
            report.violation(Violation(checker="vmx", kind="drill", detail="x"))
        assert events.sanitizer_violations["vmx:drill"] == 1
        assert report.snapshot()["sanitize_violations"] == 1.0


# ---------------------------------------------------------------------------
# Bug drills: each sanitizer must catch precisely its planted bug
# ---------------------------------------------------------------------------


@pytest.mark.sanitize
class TestBugDrills:
    def test_skipped_flush_is_caught_with_full_diagnostics(self):
        with pytest.raises(SanitizerError) as err:
            selftest._drill_skip_flush("full")
        v = err.value.violation
        assert v.checker == "shadow"
        assert v.kind == "stale-after-pcid-flush"
        assert v.vpid is not None and v.pcid is not None and v.vpn is not None
        assert v.actual is not None  # the surviving cached frame
        assert v.events_tail  # last EventLog records ride along

    def test_zeroed_huge_count_is_caught(self):
        with pytest.raises(SanitizerError) as err:
            selftest._drill_huge_count("sampled")
        v = err.value.violation
        assert v.kind == "tlb-huge-count-mismatch"
        # The audit follows the second 2 MiB fill: two entries, count 1.
        assert (v.expected, v.actual) == (2, 1)

    def test_lock_order_inversion_is_caught(self):
        with pytest.raises(SanitizerError) as err:
            selftest._drill_lock_inversion("sampled")
        v = err.value.violation
        assert v.kind == "lock-order-inversion"
        assert "meta -> pt -> rmap" in v.detail
        assert v.witness

    def test_abba_cycle_is_caught(self):
        ld = LockdepSanitizer(SanitizeReport(events=EventLog()))
        clock = Clock()
        a = SimLock("a")
        a.lockdep = ld
        b = SimLock("b")
        b.lockdep = ld
        ld.begin_op("op1")
        a.run_locked(clock, 1)
        b.run_locked(clock, 1)
        ld.end_op()
        ld.begin_op("op2")
        b.run_locked(clock, 1)
        with pytest.raises(SanitizerError) as err:
            a.run_locked(clock, 1)
        ld.end_op()
        assert err.value.violation.kind == "lock-cycle"
        assert len(err.value.violation.witness) == 2  # both orders' stacks

    def test_lock_held_across_park_is_caught(self):
        ld = LockdepSanitizer(SanitizeReport(events=EventLog()))
        lock = SimLock("l")
        lock.lockdep = ld
        ld.begin_op("op")
        lock.run_locked(Clock(), 1)
        with pytest.raises(SanitizerError) as err:
            ld.note_park("worker-3")
        ld.end_op()
        assert err.value.violation.kind == "lock-held-across-park"
        assert "worker-3" in err.value.violation.detail

    @pytest.mark.parametrize("drill,kind", [
        (selftest._drill_vmx_double_entry, "vmcs02-double-entry"),
        (selftest._drill_vmx_exit_without_entry, "vmcs02-exit-without-entry"),
        (selftest._drill_vmx_stale_entry, "vmcs02-stale-entry"),
    ])
    def test_vmx_transition_drills(self, drill, kind):
        with pytest.raises(SanitizerError) as err:
            drill("sampled")
        v = err.value.violation
        assert v.kind == kind
        assert v.witness and v.witness[0].startswith("transitions:")

    def test_merge_under_running_l2_is_caught(self):
        machine = make_machine(
            "kvm-ept (NST)", config=MachineConfig(sanitize=True))
        machine.new_context()
        with pytest.raises(SanitizerError) as err:
            machine.vmcs_shadow.merge()  # L2 is running at boot
        assert err.value.violation.kind == "vmcs02-merge-while-l2-running"

    def test_selftest_passes(self, capsys):
        assert selftest.run_selftest() == 0
        out = capsys.readouterr().out
        assert "all sanitizers detect their drills" in out


# ---------------------------------------------------------------------------
# Clean runs: no false positives, checks demonstrably execute
# ---------------------------------------------------------------------------


@pytest.mark.sanitize
class TestCleanRuns:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_blogbench_runs_violation_free(self, scenario):
        """All seven machines: the TLB audit against the reference walk
        (``Machine.expected_frame``) runs, and finds nothing."""
        machine, _ = _run_workload(scenario, sanitize=True)
        suite = machine.sanitizers
        assert suite.violations == []
        assert suite.report.checks.get("shadow-scan", 0) > 0

    @pytest.mark.parametrize("workload", sorted(APPS))
    def test_all_tier1_workloads_violation_free(self, workload):
        machine, _ = _run_workload(
            "pvm (NST)", sanitize=True, workload=workload)
        suite = machine.sanitizers
        assert suite.violations == []
        assert suite.report.total_checks > 0

    def test_fork_exec_exit_mix_violation_free(self):
        machine = make_machine(
            "pvm (BM)",
            config=MachineConfig(sanitize=True, sanitize_mode="full"),
        )
        ctx = machine.new_context()
        parent = machine.spawn_process()
        vma = machine.mmap(ctx, parent, 16 * 4096)
        for i in range(16):
            machine.touch(ctx, parent, vma.start_vpn + i, write=True)
        child = machine.fork(ctx, parent)
        machine.touch(ctx, child, vma.start_vpn, write=True)  # COW break
        machine.exec(ctx, child)
        machine.exit(ctx, child)
        machine.munmap(ctx, parent, vma)
        machine.exit(ctx, parent)
        suite = machine.sanitizers
        assert suite.violations == []
        assert suite.report.checks.get("shadow", 0) > 0
        assert suite.report.checks.get("lockdep", 0) > 0


    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fork_cow_munmap_balloon_all_machines(self, scenario):
        """Fork + COW break + exec + munmap + balloon discard, fully
        audited, on every machine."""
        machine = make_machine(
            scenario,
            config=MachineConfig(sanitize=True, sanitize_mode="full"),
        )
        ctx = machine.new_context()
        parent = machine.spawn_process()
        vma = machine.mmap(ctx, parent, 16 * 4096)
        for i in range(16):
            machine.touch(ctx, parent, vma.start_vpn + i, write=True)
        child = machine.fork(ctx, parent)
        machine.touch(ctx, child, vma.start_vpn, write=False)
        machine.touch(ctx, child, vma.start_vpn, write=True)  # COW break
        machine.exec(ctx, child)
        machine.munmap(ctx, parent, vma)
        machine.balloon.inflate(ctx, 16 * 4096)
        machine.balloon.deflate(ctx, 16 * 4096)
        again = machine.mmap(ctx, parent, 16 * 4096)
        for i in range(16):
            machine.touch(ctx, parent, again.start_vpn + i, write=True)
        machine.exit(ctx, child)
        machine.exit(ctx, parent)
        suite = machine.sanitizers
        assert suite.violations == []
        assert suite.report.checks.get("shadow-scan", 0) > 0


# ---------------------------------------------------------------------------
# Zero-overhead contract: sanitize on/off is bit-identical
# ---------------------------------------------------------------------------


@pytest.mark.sanitize
class TestBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_clock_and_events_identical(self, scenario):
        m_off, ctx_off = _run_workload(scenario, sanitize=False)
        m_on, ctx_on = _run_workload(scenario, sanitize=True, mode="full")
        assert ctx_off.clock.now == ctx_on.clock.now
        assert m_off.events.snapshot() == m_on.events.snapshot()
        assert ctx_off.tlb.stats.hits == ctx_on.tlb.stats.hits
        assert ctx_off.tlb.stats.misses == ctx_on.tlb.stats.misses


# ---------------------------------------------------------------------------
# Sanitized chaos: every recovery scenario completes violation-free
# ---------------------------------------------------------------------------


@pytest.mark.sanitize
@pytest.mark.chaos
class TestSanitizedChaos:
    def test_all_scenarios_clean_and_rows_unchanged(self, monkeypatch):
        monkeypatch.setenv("PVM_SANITIZE", "sampled")
        sanitized = experiments.chaos(scale=0.3)
        monkeypatch.delenv("PVM_SANITIZE")
        plain = experiments.chaos(
            scale=0.3, seed=experiments.CHAOS_DEFAULT_SEED)
        assert sanitized.as_dict() == plain.as_dict()
        assert "0 violations" in sanitized.notes
        checks = int(sanitized.notes.split()[1])
        assert checks > 0


@pytest.mark.sanitize
class TestFullModeReachesFleets:
    """``--sanitize full`` / ``PVM_SANITIZE=full`` must sanitize every
    fleet machine, and the selftest smoke, in full mode — never fall
    back to a config-pinned sampled mode."""

    @pytest.fixture
    def modes(self, monkeypatch):
        import repro.sanitize as sanitize_mod

        seen = []
        attach = sanitize_mod.attach_sanitizers

        def spy(machine, mode="sampled"):
            suite = attach(machine, mode=mode)
            seen.append(suite.report.mode)
            return suite

        monkeypatch.setattr(sanitize_mod, "attach_sanitizers", spy)
        monkeypatch.setenv("PVM_SANITIZE", "full")
        return seen

    def test_cli_fleets_run_full(self, modes, capsys):
        from repro.bench.cli import main

        assert main(["chaos", "overcommit", "--sanitize", "full",
                     "--scale", "0.02", "--json"]) == 0
        assert modes and set(modes) == {"full"}
        assert "violations" in capsys.readouterr().out

    def test_selftest_smoke_runs_full(self, modes, capsys):
        assert selftest.run_selftest("full") == 0
        assert modes and set(modes) == {"full"}


# ---------------------------------------------------------------------------
# Wall-clock overhead (excluded from tier-1 by the default -m filter)
# ---------------------------------------------------------------------------


@pytest.mark.wallclock_bench
class TestSanitizerOffOverhead:
    def test_hot_path_unchanged_when_off(self):
        """With sanitize=False the translation hot path carries only a
        None attribute per flush — wall-clock throughput must stay
        within the checked-in baseline's noise tolerance."""
        from repro.bench import wallclock

        baseline = wallclock.load_baseline()
        if baseline is None:
            pytest.skip("no BENCH_walk.json baseline checked in")
        results = wallclock.bench_warm_translations(iters=120)
        ref = baseline["results"]["warm_translations_per_sec"]
        floor = ref * (1.0 - wallclock.ABSOLUTE_TOLERANCE)
        assert results["warm_translations_per_sec"] >= floor
