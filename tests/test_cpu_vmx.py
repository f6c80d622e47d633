"""Unit tests for vCPU state and the VMX/VMCS protocol model."""

import pytest

from repro.hw.cpu import (
    MSR_CORE_PERF_GLOBAL_CTRL,
    MSR_LSTAR,
    Cr3,
    SharedIfWord,
    VCpu,
)
from repro.hw.types import CpuMode, HardwareError, Ring
from repro.hw.vmx import (
    ExitReason,
    PendingEvent,
    Vmcs,
    VmcsShadow,
    VmxCapabilities,
)


class TestVCpu:
    def test_defaults(self):
        v = VCpu(cpu_id=0)
        assert v.mode is CpuMode.ROOT
        assert v.ring is Ring.RING0
        assert v.rflags_if

    def test_msr_file(self):
        v = VCpu(cpu_id=0)
        assert v.read_msr(MSR_LSTAR) == 0
        v.write_msr(MSR_LSTAR, 0xFFFF)
        assert v.read_msr(MSR_LSTAR) == 0xFFFF
        v.write_msr(MSR_CORE_PERF_GLOBAL_CTRL, 7)
        assert v.read_msr(MSR_CORE_PERF_GLOBAL_CTRL) == 7

    def test_ring_transitions(self):
        v = VCpu(cpu_id=0)
        prev = v.enter_ring(Ring.RING3)
        assert prev is Ring.RING0
        assert v.ring is Ring.RING3

    def test_in_user_requires_both_rings(self):
        from repro.hw.types import VirtualRing

        v = VCpu(cpu_id=0, ring=Ring.RING3, virtual_ring=VirtualRing.V_RING3)
        assert v.in_user
        v.virtual_ring = VirtualRing.V_RING0  # deprivileged guest kernel
        assert not v.in_user

    def test_cr3_load(self):
        v = VCpu(cpu_id=0)
        v.load_cr3(Cr3(root_frame=0x42, pcid=5, no_flush=True))
        assert v.cr3.root_frame == 0x42
        assert v.cr3.no_flush

    def test_shared_if_word_defaults(self):
        w = SharedIfWord()
        assert w.interrupts_enabled and not w.pending_delivery


class TestVmcs:
    def test_generation_bumps_on_write(self):
        v = Vmcs(name="VMCS12")
        g = v.generation
        v.write()
        assert v.generation == g + 1

    def test_injection_queue(self):
        v = Vmcs(name="VMCS12")
        v.queue_injection(PendingEvent(kind=ExitReason.PAGE_FAULT, vector=14))
        events = v.take_injections()
        assert len(events) == 1
        assert events[0].vector == 14
        assert v.take_injections() == []


class TestVmcsShadow:
    def test_initial_merge(self):
        shadow = VmcsShadow(Vmcs(name="VMCS01"), Vmcs(name="VMCS12"))
        assert shadow.merges == 1
        assert not shadow.stale

    def test_staleness_tracking(self):
        v01, v12 = Vmcs(name="VMCS01"), Vmcs(name="VMCS12")
        shadow = VmcsShadow(v01, v12)
        v12.guest_cr3_frame = 0x99
        v12.write()
        assert shadow.stale
        shadow.merge()
        assert not shadow.stale
        assert shadow.vmcs02.guest_cr3_frame == 0x99

    def test_merge_moves_injections(self):
        v01, v12 = Vmcs(name="VMCS01"), Vmcs(name="VMCS12")
        shadow = VmcsShadow(v01, v12)
        v12.queue_injection(PendingEvent(kind=ExitReason.EXCEPTION))
        shadow.merge()
        assert len(shadow.vmcs02.pending) == 1
        assert v12.pending == []

    def test_vpid_taken_from_l2(self):
        v01, v12 = Vmcs(name="VMCS01", vpid=1), Vmcs(name="VMCS12", vpid=7)
        shadow = VmcsShadow(v01, v12)
        assert shadow.vmcs02.vpid == 7


class TestVmxCapabilities:
    def test_bare_metal_has_everything(self):
        caps = VmxCapabilities.bare_metal()
        assert caps.vmx and caps.ept and caps.vmcs_shadowing and caps.vpid
        caps.require_vmx("test")  # no raise

    def test_cloud_instance_has_nothing(self):
        caps = VmxCapabilities.none()
        assert not caps.vmx
        with pytest.raises(HardwareError):
            caps.require_vmx("kvm")

    def test_pvm_needs_no_vmx(self):
        """The deployability claim: PVM works where VMX is absent."""
        from repro import make_machine

        # PvmMachine never calls require_vmx on guest-visible caps.
        m = make_machine("pvm (NST)")
        assert not hasattr(m, "caps")


class TestPrefaulter:
    """The prefault fill, seen from the machine: it is taken in the same
    dance that fixed the guest fault, so each fill saves exactly one
    shadow-stale fault."""

    @staticmethod
    def _faults(name, prefault, pages=4):
        from repro import make_machine
        from repro.hw.types import KIB
        from repro.hypervisors.base import MachineConfig

        m = make_machine(name, config=MachineConfig(prefault=prefault))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, pages * 4 * KIB)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        faults = m.events.page_faults
        return (m.prefaulter.fills, faults["phase1:guest-pt"],
                faults["phase2:shadow-pt"])

    @pytest.mark.parametrize("name", ["pvm (BM)", "pvm (NST)"])
    def test_enabled_fills_once_per_guest_fault(self, name):
        fills, guest, _ = self._faults(name, prefault=True)
        assert fills == guest == 4

    @pytest.mark.parametrize("name", ["pvm (BM)", "pvm (NST)"])
    def test_enabled_leaves_no_shadow_stale_fault(self, name):
        _, guest, stale = self._faults(name, prefault=True)
        assert (guest, stale) == (4, 0)

    @pytest.mark.parametrize("name", ["pvm (BM)", "pvm (NST)"])
    def test_disabled_pays_one_shadow_stale_fault_each(self, name):
        fills, guest, stale = self._faults(name, prefault=False)
        assert fills == 0
        assert guest == stale == 4
