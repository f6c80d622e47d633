"""Tests for the context-switch workload and PCID-mapping interaction."""

from repro import make_machine
from repro.hypervisors.base import MachineConfig
from repro.workloads.ctxswitch import measure_hop_ns, token_ring


class TestTokenRing:
    def test_runs_and_advances(self):
        m = make_machine("pvm (NST)")
        hop = measure_hop_ns(m, nprocs=3, hops=12)
        assert hop > 0

    def test_processes_created(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        gen = token_ring(m, ctx, proc, nprocs=4, hops=4)
        for _ in gen:
            pass
        assert len(m.kernel.processes) == 4

    def test_warm_ring_has_no_faults(self):
        """After setup, hops only read warm working sets — any faults
        would indicate broken shadow/TLB state across switches."""
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        gen = token_ring(m, ctx, proc, nprocs=3, hops=10)
        next(gen)
        faults_before = m.events.page_faults.total
        for _ in gen:
            pass
        assert m.events.page_faults.total == faults_before


class TestPcidMappingOnSwitches:
    def test_pcid_mapping_keeps_tlb_warm(self):
        """The §3.3.2 headline in its natural habitat: without PCID
        mapping every L2 CR3 load flushes the VPID, so each hop re-walks
        its working set; with it, hops run from the TLB."""
        with_pcid = measure_hop_ns(
            make_machine("pvm (NST)", config=MachineConfig(pcid_mapping=True))
        )
        without = measure_hop_ns(
            make_machine("pvm (NST)", config=MachineConfig(pcid_mapping=False))
        )
        assert without > 1.5 * with_pcid

    def test_tlb_flush_counters_differ(self):
        m_on = make_machine("pvm (NST)", config=MachineConfig(pcid_mapping=True))
        m_off = make_machine("pvm (NST)", config=MachineConfig(pcid_mapping=False))
        measure_hop_ns(m_on, hops=16)
        measure_hop_ns(m_off, hops=16)
        assert m_off.events.tlb_flushes["vpid"] > 0
        assert m_on.events.tlb_flushes["vpid"] == 0

    def test_hardware_guest_unaffected_by_pcid_flag(self):
        """The flag is a PVM optimization; kvm-ept guests use hardware
        PCIDs natively either way."""
        a = measure_hop_ns(
            make_machine("kvm-ept (NST)", config=MachineConfig(pcid_mapping=True))
        )
        b = measure_hop_ns(
            make_machine("kvm-ept (NST)", config=MachineConfig(pcid_mapping=False))
        )
        assert a == b
