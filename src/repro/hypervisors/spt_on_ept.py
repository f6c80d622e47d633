"""SPT-on-EPT: shadow paging at L1 over hardware EPT at L0 (§2.2).

The straw-man nested memory virtualization of Figure 3(a): L1 maintains
SPT12 (GVA_L2 -> GPA_L1) and hardware translates the rest through EPT01.
Every L2 #PF exits to L0 and is *forwarded* to L1; every GPT2 write is
emulated by L1 — also through L0.  An L2 page fault costs up to
``4n + 8`` world switches and ``2n + 4`` L0 exits, which is why the
paper excludes this design from production consideration.

EPT01 is assumed warm (§2.2 footnote): the memory chain fills
violations on it silently without charging nested machinery.
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import FaultPhase, TraceEvent
from repro.hw.types import PageFault
from repro.hypervisors.base import CpuCtx, Machine
from repro.hypervisors.kvm_spt import KvmShadowMixin
from repro.hypervisors.nested import NestedVmxMixin
from repro.sim.locks import SimLock

_KEY_SHADOW_PT = FaultPhase.SHADOW_PT.value
_KEY_GUEST_PT = FaultPhase.GUEST_PT.value

class SptOnEptMachine(KvmShadowMixin, NestedVmxMixin, Machine):
    """Secure container in an L2 guest under SPT-on-EPT."""

    name = "kvm-spt (NST)"
    nested = True
    #: SPT12 shadows at 4K granularity only.
    supports_thp = False
    #: gfn2 -> gfn1 -> hfn, over a warm EPT01 maintained by L0.
    l1_level = True
    warm_ept01 = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        #: Per-process SPT12 (GVA_L2 -> gfn1), maintained by L1.
        self.l1_mmu_lock = SimLock("l1-mmu_lock", self.events)
        self.init_kvm_shadow(self.l1_phys, self.l1_mmu_lock)

    def lockdep_classes(self):
        return super().lockdep_classes() + [(self.l1_mmu_lock, "l1-mmu")]

    # -- fault handling --------------------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Figure 3(a): every L2 #PF exits to L0 and is forwarded to L1."""
        vpn = fault.vaddr >> 12
        self.l2_exit_to_l1(ctx, "#PF")
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is not None and gpt_pte.permits(fault.access, user=True):
            # Second phase: L1 syncs SPT12 and resumes L2 user directly.
            self._sync_spte(ctx, proc, vpn, gpt_pte)
            self.l1_resume_l2(ctx)
            self._fault_counts[_KEY_SHADOW_PT] += 1
            if self._trace is not None:
                self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id,
                                              "fault", _KEY_SHADOW_PT))
            return
        # First phase: L1 injects the #PF into L2's VMCS12 and resumes
        # into the L2 kernel's fault handler (via L0 again).
        ctx.clock.advance(self.costs.irq_inject)
        self.vmcs12.write()
        self.events.injections["#PF"] += 1
        self.l1_resume_l2(ctx)
        ctx.clock.advance(self.costs.pf_delivery)
        fix = self.kernel.fix_fault(proc, vpn, fault.access, gpt_pte)
        ctx.clock.advance(self.fault_body_ns(proc, fix))
        # Every GPT2 write needs L1's assistance — each one a full
        # L2 -> L0 -> L1 -> L0 -> L2 round (4 switches, 2 L0 exits).
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        self.guest_internal_transition(ctx)  # L2 kernel iret
        self._fault_counts[_KEY_GUEST_PT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id, "fault",
                                          _KEY_GUEST_PT))

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """GPT2 is read-only to L2; L1 emulates each write — via L0."""
        for _ in range(writes):
            self.l2_exit_to_l1(ctx, "gpt-write")
            self._emulate_gpt_write(ctx)
            self.l1_resume_l2(ctx)

    # -- transitions -----------------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """With KPTI the L2 kernel's CR3 switch traps — all the way
        through L0.  This is what makes SPT-on-EPT unusable."""
        if self.config.kpti:
            self.l2_exit_to_l1(ctx, "cr3-switch")
            ctx.clock.now += self.costs.spt_cr3_switch_handler
            self.l1_resume_l2(ctx)
        else:
            super()._syscall_round_trip(ctx, proc)
