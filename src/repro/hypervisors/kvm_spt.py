"""kvm-spt (BM): single-level virtualization with classic shadow paging.

The software-memory-virtualization baseline.  CPU virtualization is
identical to kvm-ept (VT-x traps), but the hardware walks a per-process
*shadow* page table mapping GVA directly to HPA.  Consequences the
paper measures:

* every hardware #PF exits to the hypervisor (even pure guest faults),
* every guest PTE write traps (the GPT is write-protected),
* with KPTI, every syscall's CR3 switch traps so the hypervisor can
  swap user/kernel shadow roots (Table 2's 2.09 us row),
* all shadow updates serialize on the global ``mmu_lock``.
"""

from __future__ import annotations

from repro.core.shadow import ShadowManager
from repro.guest.process import Process
from repro.hw.events import FaultPhase, SwitchKind, TraceEvent
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import Pte
from repro.hw.types import PageFault
from repro.hypervisors.base import CpuCtx
from repro.hypervisors.kvm_ept import KvmMachine
from repro.sim.locks import SimLock

_HW_L1_L0 = SwitchKind.HW_L1_L0
_KEY_SHADOW_PT = FaultPhase.SHADOW_PT.value
_KEY_GUEST_PT = FaultPhase.GUEST_PT.value

class KvmShadowMixin:
    """KVM's classic shadow MMU over the shared shadow core.

    One shadow table per process (a single-half
    :class:`~repro.core.shadow.ShadowManager` naming the memory chain's
    target frames), every update serialized on one global lock.
    kvm-spt (BM) and kvm-spt (NST) differ only in which lock that is
    and in the exit path each trap pays.
    """

    def init_kvm_shadow(self, table_phys: PhysicalMemory,
                        lock: SimLock) -> None:
        """Create the shadow core; ``lock`` serializes every update."""
        self.shadow = ShadowManager(table_phys, self.costs,
                                    self.memory.target, dual=False)
        self.shadow_lock = lock
        # Lock-section costs, read once (validated non-negative ints):
        # the acquire/release overhead and the holds of a sync, a
        # trapped GPT write and a zap.
        costs = self.costs
        self._shadow_lock_op_ns = costs.mmu_lock_op
        self._sync_hold_ns = costs.mmu_lock_hold
        self._sync_per_entry_ns = costs.spt_sync_per_entry
        self._gpt_write_hold_ns = costs.wp_emulate_write + costs.mmu_lock_hold
        self._zap_hold_ns = costs.mmu_lock_hold // 2

    def _sync_spte(self, ctx: CpuCtx, proc: Process, vpn: int,
                   gpt_pte: Pte) -> None:
        """Install one shadow PTE from the guest PTE, under the lock."""
        result = self.shadow.sync(proc, vpn, gpt_pte)
        san = self.sanitizers
        if san is not None:
            san.shadow.after_sync(ctx, proc, vpn, gpt_pte, result)
        self.shadow_lock.run_locked(
            ctx.clock,
            self._sync_hold_ns + result.entry_writes * self._sync_per_entry_ns,
            self._shadow_lock_op_ns)

    def _emulate_gpt_write(self, ctx: CpuCtx) -> None:
        """Apply one trapped guest PTE write to the shadow side."""
        self.shadow_lock.run_locked(ctx.clock, self._gpt_write_hold_ns,
                                    self._shadow_lock_op_ns)
        self._emulation_counts["gpt-write"] += 1

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """munmap/mprotect: zap stale shadow entries + TLB."""
        vpns = tuple(vpns)
        asid = self.asid_for(proc)
        removed = self.shadow.unmap_pages(proc, vpns)
        clock, mmu, lock = ctx.clock, ctx.mmu, self.shadow_lock
        # Per vpn, the zap's lock section, then its INVLPG: lock request
        # times (and so the waits between vCPUs) depend on this order.
        for vpn in vpns:
            if vpn in removed:
                lock.run_locked(clock, self._zap_hold_ns,
                                self._shadow_lock_op_ns)
            mmu.flush_page(clock, asid, vpn)
        self.audit_zap(ctx, proc, vpns)

    def on_process_created(self, ctx: CpuCtx, proc: Process) -> None:
        """Fork: the parent's mappings were downgraded for COW, so its
        shadow entries are stale.  KVM zaps and lets them re-sync."""
        parent = self.kernel.processes.get(proc.parent_pid or -1)
        if parent is not None:
            self.on_process_reset(ctx, parent)

    def on_process_reset(self, ctx: CpuCtx, proc: Process) -> None:
        """Bulk zap: drop the shadow table and flush the process's tag."""
        self.shadow.drop(proc)
        self.invalidate_asid(ctx, proc)


class KvmSptMachine(KvmShadowMixin, KvmMachine):
    """Secure container under single-level shadow paging (kvm-spt BM)."""

    name = "kvm-spt (BM)"
    #: Classic shadow paging shadows at 4K granularity only.
    supports_thp = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mmu_lock = SimLock("mmu_lock", self.events)
        self.init_kvm_shadow(self.host_phys, self.mmu_lock)

    # -- fault handling -----------------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Hardware #PF on the shadow table: always exits to the host.

        The host distinguishes a *shadow-stale* fault (guest table has
        the mapping; sync one SPTE under mmu_lock) from a *true guest*
        fault (inject #PF; the guest's fix-up writes then trap one by
        one under write protection).
        """
        vpn = fault.vaddr >> 12
        self.hw_exit_entry(ctx, _HW_L1_L0)  # #PF VM exit
        self._l0_counts["spt-fault"] += 1
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is not None and gpt_pte.permits(fault.access, True):
            self._sync_spte(ctx, proc, vpn, gpt_pte)
            self.hw_exit_entry(ctx, _HW_L1_L0)  # VM entry
            self._fault_counts[_KEY_SHADOW_PT] += 1
            if self._trace is not None:
                self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id,
                                              "fault", _KEY_SHADOW_PT))
            return
        # True guest fault: inject #PF and resume into the guest handler.
        ctx.clock.now += self.costs.irq_inject
        self.events.injections["#PF"] += 1
        self.hw_exit_entry(ctx, _HW_L1_L0)  # VM entry (to handler)
        ctx.clock.now += self.costs.pf_delivery
        fix = self.kernel.fix_fault(proc, vpn, fault.access, gpt_pte)
        ctx.clock.now += self.fault_body_ns(proc, fix)
        # Each guest PTE write trapped under write protection.
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        self.guest_internal_transition(ctx)  # guest iret (no exit)
        self._fault_counts[_KEY_GUEST_PT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id, "fault",
                                          _KEY_GUEST_PT))
        # The retry will fault again on the shadow table and take the
        # sync path above — the "second phase" of §2.2.

    # -- write-protected guest page tables ----------------------------------------

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Every guest PTE write traps: exit, emulate under mmu_lock, enter."""
        lock, hold_ns = self.shadow_lock, self._gpt_write_hold_ns
        op_ns = self._shadow_lock_op_ns
        for _ in range(writes):
            self._hw_round_trip(ctx, "gpt-write", hold_ns, lock, op_ns)
            self._emulation_counts["gpt-write"] += 1

    # -- transitions -------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """With KPTI, the guest's user<->kernel CR3 writes trap so the
        hypervisor can switch shadow roots (the 2.09 us of Table 2).
        Without KPTI there is no CR3 switch and no exit."""
        if self.config.kpti:
            self._hw_round_trip(ctx, "cr3-switch",
                                self.costs.spt_cr3_switch_handler)
            self._emulation_counts["cr3-switch"] += 1
        else:
            super()._syscall_round_trip(ctx, proc)
