"""Direct paging on KVM — the paper's §5 "Xen-like" future direction.

Instead of shadowing, the L2 guest's page tables map guest-virtual
addresses *directly* to L1-physical frames (the GPA->HPA relationship
is exposed to the guest, as in Xen PV).  There are no shadow tables to
maintain and no write-protect traps; instead every page-table update is
submitted through validated ``set_pte``-family hypercalls, batched per
fault, so the hypervisor can enforce that the guest only ever maps
frames it owns.

An L2 page fault then costs a constant **6 world switches** regardless
of table depth: deliver (2) + one batched set_pte hypercall (2) +
iret (2) — compared with PVM-on-EPT's ``2n + 4`` — and, like PVM, zero
L0 exits.  The trade-off is the paravirtual MMU contract: the guest
kernel must be modified to call the hypervisor for *every* update, and
validation work scales with the batch.
"""

from __future__ import annotations

from repro.core.pvm_machine import PvmSwitcherMachine
from repro.core.switcher import GuestWorld
from repro.guest.process import Process
from repro.hw.events import FaultPhase, TraceEvent
from repro.hw.memory import PhysicalMemory
from repro.hw.types import PageFault
from repro.hypervisors.base import CpuCtx

_KERNEL = GuestWorld.KERNEL
_USER = GuestWorld.USER
_KEY_GUEST_PT = FaultPhase.GUEST_PT.value

class DirectPagingMachine(PvmSwitcherMachine):
    """``pvm-dp (NST)``: PVM's switcher with direct paging instead of
    shadowing.

    The guest allocates straight from the L1 VM's physical space (the
    hypervisor's allocator *is* the guest's allocator, under hypercall
    validation), so GPT leaves hold gfn1 values that EPT01 translates:
    the memory chain has a single level over the warm EPT01, and there
    is no shadow core — the hardware walks the guest's own tables.
    """

    name = "pvm-dp (NST)"
    nested = True
    # EPT01 below us is maintained by the unmodified L0: warm.
    warm_ept01 = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The L1 VM's physical space is the guest's (see _guest_ram).
        self.l1_phys = self.guest_phys
        self.validated_updates = 0

    def _guest_ram(self) -> PhysicalMemory:
        """Direct paging: guest page tables reference machine (L1)
        frames directly, so the guest allocates from the L1 space."""
        return PhysicalMemory("l1-vm", self.config.host_mem_bytes)

    # -- fault dance: constant-cost, shadow-free --------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """The constant-cost dance, #PF to iret, in one handler."""
        vpn = fault.vaddr >> 12
        clock, cpu = ctx.clock, ctx.cpu_id
        sw = self.hv.switcher
        # Deliver the #PF into the L2 kernel (2 switches).
        sw.vm_exit(clock, cpu, "#PF")
        clock.now += self._inject_pf_ns
        self._injection_counts["#PF"] += 1
        sw.vm_enter(clock, cpu, _KERNEL)
        # The kernel computes the fix and submits it as ONE batched
        # set_pte hypercall; PVM validates every entry.
        clock.now += self._pf_delivery_ns
        fix = self.kernel.fix_fault(proc, vpn, fault.access,
                                    proc.gpt.lookup(vpn))
        clock.now += self.fault_body_ns(proc, fix)
        sw.vm_exit(clock, cpu, "hypercall:set_pte")
        self._validate(ctx, fix.entry_writes)
        # locked_fix(clock, pt_key, gfn, work_ns, structural)
        self._locked_fix(clock, (proc.pid, vpn >> 9), fix.pte.frame, 0,
                         fix.levels_allocated > 1)
        sw.vm_enter(clock, cpu, _KERNEL)
        # iret hypercall back to user (2 switches; nothing to prefault —
        # the hardware walks the guest's own table).
        self._iret_hypercall(ctx)
        sw.vm_enter(clock, cpu, _USER)
        self._fault_counts[_KEY_GUEST_PT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(clock.now, cpu, "fault",
                                          _KEY_GUEST_PT))

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Non-fault updates (munmap, mprotect, fork) are batched into a
        single validated hypercall per operation."""
        sw = self.hv.switcher
        resume = self._resume_world(ctx, _KERNEL)
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:set_pte")
        self._validate(ctx, writes)
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)

    def _validate(self, ctx: CpuCtx, writes: int) -> None:
        """PVM's set_pte handler: validate a batch of guest PTE updates."""
        ctx.clock.now += (self.costs.pvm_hypercall_handler
                          + writes * self.costs.direct_paging_validate)
        self._hypercall_counts["set_pte"] += 1
        self.validated_updates += writes
