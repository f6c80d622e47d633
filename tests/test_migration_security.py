"""Tests for L1 migration constraints (§2.3) and the §5 security metrics."""

import pytest

from repro import SCENARIOS, make_machine
from repro.containers.migration import (
    MigrationBlockedError,
    MigrationManager,
    NotMigratableError,
    pins_host_state,
)
from repro.hw.types import KIB
from repro.security import (
    compare,
    secure_container_hw_nested,
    secure_container_pvm,
    traditional_container,
)


def _running_guest(name):
    m = make_machine(name)
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 64 * KIB)
    for vpn in range(vma.start_vpn, vma.end_vpn):
        m.touch(ctx, proc, vpn, write=True)
    return m


class TestPinsHostState:
    def test_hw_nested_pins(self):
        assert pins_host_state(make_machine("kvm-ept (NST)"))
        assert pins_host_state(make_machine("kvm-spt (NST)"))

    def test_pvm_does_not_pin(self):
        assert not pins_host_state(make_machine("pvm (NST)"))
        assert not pins_host_state(make_machine("pvm-dp (NST)"))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario(self, scenario):
        """Only hardware-assisted nesting parks a VMCS02 in L0."""
        expected = scenario in ("kvm-ept (NST)", "kvm-spt (NST)")
        assert pins_host_state(make_machine(scenario)) is expected


class TestMigration:
    def test_pvm_l1_migrates_with_running_l2(self):
        mgr = MigrationManager()
        report = mgr.migrate_l1([_running_guest("pvm (NST)")])
        assert report.pages_copied > 0
        assert report.downtime_ns > 0
        assert report.total_ns > report.downtime_ns

    def test_kvm_nested_blocks_migration(self):
        mgr = MigrationManager()
        with pytest.raises(MigrationBlockedError):
            mgr.migrate_l1([_running_guest("kvm-ept (NST)")])

    def test_mixed_fleet_blocked_by_one_pinner(self):
        mgr = MigrationManager()
        fleet = [_running_guest("pvm (NST)"), _running_guest("kvm-ept (NST)")]
        with pytest.raises(MigrationBlockedError):
            mgr.migrate_l1(fleet)

    def test_bare_metal_not_applicable(self):
        mgr = MigrationManager()
        with pytest.raises(NotMigratableError):
            mgr.migrate_l1([_running_guest("pvm (BM)")])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            MigrationManager().migrate_l1([])

    def test_save_restore_mirrors_migration(self):
        mgr = MigrationManager()
        assert mgr.save_restore_supported(make_machine("pvm (NST)"))
        assert not mgr.save_restore_supported(make_machine("kvm-ept (NST)"))
        assert not mgr.save_restore_supported(make_machine("pvm (BM)"))

    def test_footprint_scales_with_usage(self):
        mgr = MigrationManager()
        small = mgr.migrate_l1([_running_guest("pvm (NST)")])
        m = _running_guest("pvm (NST)")
        ctx = m.contexts[0]
        proc = list(m.kernel.processes.values())[0]
        vma = m.mmap(ctx, proc, 1 << 20)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        large = mgr.migrate_l1([m])
        assert large.pages_copied > small.pages_copied


class TestSecuritySurface:
    def test_pvm_interface_is_tens_not_hundreds(self):
        """§5: 'a minimal set of hypercalls, typically around 10s' vs
        '250+ system calls under the default seccomp configuration'."""
        pvm = secure_container_pvm()
        assert pvm.interface_count < 30
        assert traditional_container().interface_count >= 250

    def test_relative_interface_reduction(self):
        pvm = secure_container_pvm()
        assert pvm.relative_interface < 0.1  # >10x smaller interface

    def test_defense_in_depth(self):
        assert traditional_container().defense_layers == 1
        assert secure_container_pvm().defense_layers == 3

    def test_pvm_thinner_host_than_hw_nesting(self):
        """§2.3/§5: PVM keeps the L0 hypervisor thin; nested VMX fattens it."""
        pvm = secure_container_pvm()
        hw = secure_container_hw_nested()
        assert pvm.reachable_kloc < hw.reachable_kloc
        assert not any("L0" in layer for layer in pvm.layers[:2])

    def test_compare_ordering(self):
        reports = compare()
        assert set(reports) == {
            "traditional container",
            "secure container (kvm NST)",
            "secure container (pvm)",
        }
        assert (reports["secure container (pvm)"].interface_count
                < reports["secure container (kvm NST)"].interface_count
                < reports["traditional container"].interface_count)

    def test_interface_matches_hypercall_table(self):
        from repro.core.hypercalls import HYPERCALLS

        assert secure_container_pvm().interface_count == len(HYPERCALLS)
