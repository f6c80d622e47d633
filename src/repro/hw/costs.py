"""Calibrated nanosecond cost model.

All virtual time charged anywhere in the simulator comes from constants
defined here, so re-calibration is a one-file change and experiments can
never drift apart.  Calibration anchors, from the paper:

* single-level hardware world switch: 0.105 us (§2.2),
* an L2<->L1 world switch under EPT-on-EPT: 1.3 us (§2.2),
* a PVM software world switch inside the switcher: 0.179 us (§3.3.2),
* Table 1 round-trip latencies (hypercall 0.46 / 7.43 / 0.48 us, ...),
* Table 2 get_pid syscall times (0.22 / 1.91 / 0.29 us, ...),
* Table 3/4 bare-metal columns for base kernel-work costs.

The model intentionally *composes* micro-costs: e.g. the kvm (NST)
hypercall round-trip is never stored anywhere — it emerges as
``hw_world_switch * 4 + l0_forward_overhead + vmcs_merge_reload +
hypercall_handler`` from the nested exit state machine in
:mod:`repro.hypervisors.nested`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Every cost is in integer nanoseconds of virtual time."""

    # -- world switches --------------------------------------------------
    #: One direction of a hardware VMX transition (exit or entry) between
    #: non-root and root mode, single level.  Paper: 0.105 us per switch.
    hw_world_switch: int = 105
    #: One direction of a PVM software world switch performed by the
    #: switcher (state save/restore in the per-CPU entry area).
    #: Paper: 0.179 us.
    pvm_world_switch: int = 179
    #: Software work L0 performs to forward a trap from L2 to L1 (reading
    #: VMCS02, synthesizing the injected event into VMCS01).  Chosen so an
    #: L2->L1 switch (exit + forward + entry) costs ~1.3 us (§2.2).
    l0_forward_overhead: int = 1090
    #: Software work L0 performs when L1 executes VMRESUME for L2:
    #: merging/reloading the shadow VMCS02 from VMCS01+VMCS12 and, for
    #: EPT-on-EPT, revalidating the compressed EPT02 pointer.  Dominates
    #: the nested round-trip (Table 1: 7.43 us hypercall).
    vmcs_merge_reload: int = 5600
    #: VMREAD/VMWRITE emulated by L0 when VMCS shadowing is *disabled*.
    #: With shadowing enabled these are free (handled by hardware).
    vmcs_access_exit: int = 1500
    #: CPU-ring transition via syscall/iret within one address space
    #: (h_ring3 -> h_ring0 entry into the switcher).
    ring_transition: int = 65
    #: Extra work of the PVM direct switch: building the syscall frame and
    #: swapping the user/kernel hardware CR3s without leaving the switcher.
    direct_switch_extra: int = 50

    # -- handler bodies (time spent inside a hypervisor/kernel handler) --
    hypercall_handler: int = 250
    pvm_hypercall_handler: int = 120
    exception_handler: int = 1450
    pvm_exception_handler: int = 1310
    msr_handler: int = 660
    cpuid_handler: int = 330
    pio_handler: int = 3580
    #: Extra L1<->L0 service trips PIO needs in hardware-assisted nesting
    #: (device emulation lives in L1 userspace; each leg multiplies).
    pio_userspace_trips: int = 3
    #: PVM instruction emulation for privileged instructions that are not
    #: on the 22-entry hypercall fast path (full decode + simulate).
    instr_emulation: int = 2170
    #: PVM paravirtual fast-path handlers (hypercall-table service).
    pvm_msr_handler: int = 2170
    pvm_cpuid_handler: int = 150
    pvm_pio_handler: int = 4200
    #: Extra event-delivery bookkeeping (switcher IDT redirection +
    #: virtual-IF handling) when PVM runs deprivileged inside a VM
    #: instance (Table 1's pvm NST exception/MSR rows vs BM).
    pvm_nst_event_extra: int = 440

    # -- syscall path ------------------------------------------------------
    #: Kernel work of a trivial syscall (get_pid) once inside the kernel.
    syscall_body: int = 60
    #: Extra per-syscall cost of KPTI on a native/EPT guest: CR3 write and
    #: incidental TLB effects on entry and exit combined.
    kpti_syscall_overhead: int = 160
    #: Hypervisor work to swap user/kernel shadow page tables on a syscall
    #: under classic single-level shadow paging (kvm-spt + KPTI).
    spt_cr3_switch_handler: int = 1720
    #: Hypervisor-side dispatch cost when PVM forwards a syscall to the
    #: guest kernel without the direct-switch optimization (two traversals
    #: of the full exit path inside the PVM hypervisor).
    pvm_syscall_dispatch: int = 500

    # -- memory system -----------------------------------------------------
    tlb_hit: int = 1
    #: Per-level cost of a one-dimensional page walk (cached table reads).
    walk_step_1d: int = 15
    #: Per-level cost of a two-dimensional (GPT x EPT) walk step; each
    #: guest-level step requires an inner EPT walk, hence ~4x.
    walk_step_2d: int = 55
    #: Exception-delivery cost of a #PF inside a guest kernel (dispatch
    #: through the IDT to the handler and back, excluding handler work).
    pf_delivery: int = 80
    #: Kernel work to service an anonymous minor fault (allocate + zero a
    #: page, update VMA bookkeeping) excluding page-table writes.
    minor_fault_body: int = 500
    #: Kernel work for a warm file-backed fault (page already in the page
    #: cache — the case lmbench's "page fault" row measures).
    file_fault_body: int = 60
    #: Extra kernel work for a 2 MiB THP fault (clearing 512 pages).
    thp_fault_extra: int = 45_000
    #: A single page-table entry write performed by a kernel.
    pte_write: int = 12
    #: Hypervisor work to fix one missing EPT level (allocate table node,
    #: write entry) inside an EPT-violation handler.
    ept_fix_per_level: int = 180
    #: Hypervisor work to synchronize one shadow PTE from a guest PTE
    #: (translate GPA, allocate backing if needed, write SPTE).
    spt_sync_per_entry: int = 220
    #: Hypervisor work to emulate one write-protected guest PTE write
    #: (decode the faulting store, apply it, invalidate stale SPTEs).
    wp_emulate_write: int = 350
    #: Cost of refilling one TLB entry after a flush (amortized; charged
    #: per flushed entry that is later re-touched is modeled by walks, so
    #: this only covers the flush instruction itself).
    tlb_flush_op: int = 90
    #: Full-VPID flush penalty beyond the flush op (pipeline drain).
    tlb_vpid_flush_extra: int = 240
    #: Cost (to the initiator) of one remote TLB-shootdown IPI.
    tlb_shootdown_ipi: int = 1200
    #: Per-leaf-entry cost of a working-set-estimation A-bit scan
    #: (read + conditional clear of the accessed bit, PML-style).  The
    #: induced refaults are charged separately by the flush that the
    #: scan performs through the machine's invalidation hooks.
    wse_scan_per_entry: int = 10

    # -- PVM shadow-paging fast paths -------------------------------------
    #: PVM prefault: populating the SPT leaf for the just-fixed GVA while
    #: already inside the hypervisor on the iret path (§3.3.2).
    prefault_fill: int = 160
    # -- PVM future-work extensions (§5) -----------------------------------
    #: Switcher-side check distinguishing guest-PT from shadow-PT faults.
    fault_triage_check: int = 30
    #: Per-entry validation + batch-sync work under WP-less collaborative
    #: page-table construction (replaces a full WP trap round trip).
    wpless_sync_per_entry: int = 90
    #: Per-entry validation cost of a direct-paging set_pte hypercall
    #: (type checks + reference counting on the machine frame).
    direct_paging_validate: int = 120

    #: PVM fine-grained lock acquire/release pair (uncontended).
    finegrained_lock_op: int = 18
    #: Global mmu_lock acquire/release pair (uncontended).
    mmu_lock_op: int = 30
    #: Critical-section length under the global mmu_lock for one shadow
    #: page-fault fix (the serialized portion; the paper's fine-grained
    #: design shrinks and splits this).
    mmu_lock_hold: int = 900
    #: KVM's classic shadow-MMU holds mmu_lock across the *whole* anon
    #: two-phase fault service (guest-table walk, unsync tracking, rmap
    #: and sync work) — much longer than a single sync.
    kvm_spt_fault_lock_hold: int = 6250
    #: Serialized critical-section length per lock class under PVM's
    #: fine-grained scheme (meta/pt/rmap each hold briefly).
    finegrained_lock_hold: int = 120

    # -- paravirtual I/O -----------------------------------------------------
    #: Host-side handler behind a virtio doorbell (vhost worker wakeup +
    #: ring processing), excluding the world-switch legs.
    virtio_doorbell_handler: int = 900
    #: Driver-side work to post one descriptor (no exit).
    virtio_add_buf: int = 150
    #: virtio-blk service: per-request base + per-4KiB-segment transfer.
    blk_service_base: int = 25_000
    blk_service_per_4k: int = 9_000
    #: vhost-net service: per-packet base + per-1500B wire time.
    net_service_base: int = 15_000
    net_service_per_mtu: int = 1_200

    # -- interrupts ---------------------------------------------------------
    #: Interval between host timer interrupts delivered to a running vCPU.
    timer_interval: int = 4_000_000  # 250 Hz
    #: Guest/host interrupt-handler body.
    irq_handler: int = 800
    #: L0 work to inject an external interrupt into L1 (APIC emulation).
    irq_inject: int = 300
    #: HALT wakeup latency when emulated via VMX exits to L0.
    halt_wake_hw: int = 2600
    #: HALT wakeup latency under PVM's hypercall-based HLT (§4.3).
    halt_wake_pvm: int = 700

    # -- misc ----------------------------------------------------------------
    #: Baseline syscall kernel work for non-trivial syscalls is supplied
    #: per-workload; this is the dispatch overhead around it.
    syscall_dispatch: int = 40
    #: Copying one page to break copy-on-write.
    cow_copy: int = 900
    #: Process-creation bookkeeping (incl. child exit + parent wait, as
    #: lmbench's fork proc measures) excluding page-table work.
    fork_body: int = 35_000
    #: Per-page VMA/anon-rmap duplication work during fork.
    fork_per_page: int = 150
    exec_body: int = 250_000
    #: Context switch between guest processes (scheduler + CR3 write).
    context_switch: int = 1200

    def __post_init__(self) -> None:
        # The switch legs add these constants to a clock directly,
        # without ``Clock.advance``'s per-call check: this is that check,
        # made once for every constant.
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"cost {f.name} must be a non-negative int, got {value!r}")

    def derived(self) -> Dict[str, int]:
        """Round-trip costs implied by the model (for reports/tests)."""
        return {
            # single-level hardware round trip: exit + handler + entry
            "hw_roundtrip_hypercall": 2 * self.hw_world_switch + self.hypercall_handler,
            # nested L2->L1 one-way switch (paper: ~1.3 us)
            "nested_l2_l1_switch": 2 * self.hw_world_switch + self.l0_forward_overhead,
            # nested L1->L2 resume (VMRESUME trap + merge + real entry)
            "nested_l1_l2_resume": 2 * self.hw_world_switch + self.vmcs_merge_reload,
            # PVM switch round trip
            "pvm_roundtrip_hypercall": 2 * self.pvm_world_switch
            + self.pvm_hypercall_handler,
        }

    def with_overrides(self, **kwargs: int) -> "CostModel":
        """Return a copy with some constants replaced (for sensitivity
        analyses and ablation benches)."""
        return replace(self, **kwargs)


#: The default, paper-calibrated model.  Import this rather than
#: instantiating ad hoc so every component shares one calibration.
DEFAULT_COSTS = CostModel()
