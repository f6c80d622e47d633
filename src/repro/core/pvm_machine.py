"""The PVM machine: ``pvm (BM)`` and ``pvm (NST)``.

One class serves both deployment modes (§4): on bare metal PVM acts as
the L0 host hypervisor; inside a VM instance it is the L1 guest
hypervisor, fully transparent to the unmodified host below.  The only
behavioural differences are (a) where shadow targets point (host frames
vs L1 guest-physical frames over a warm EPT01) and (b) the single
hardware exit per external interrupt / PIO backend access that nesting
adds.

The L2 page-fault dance (Figure 9) costs ``2n + 4`` PVM world switches
and **zero** L0 exits; the tests assert both counts, plus ``2n + 6``
when the prefault optimization is disabled.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.hypervisor import PvmHypervisor
from repro.core.pcid import PcidMapper
from repro.core.prefault import Prefaulter
from repro.core.shadow import ShadowManager
from repro.core.sptlocks import SptLockManager
from repro.core.switcher import GuestWorld
from repro.guest.interrupts import Vector
from repro.guest.process import Process
from repro.hw.events import FaultPhase, SwitchKind
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import Pte
from repro.hw.types import Asid, PageFault
from repro.hypervisors.base import CpuCtx, Machine
from repro.hypervisors.chain import MemoryChain


class PvmMachine(Machine):
    """Secure container under the PVM guest hypervisor."""

    #: Shadow paging (PVM proper); direct paging turns it off.
    shadow_paging = True

    def __init__(self, *args, nested: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.nested = nested
        self.name = "pvm (NST)" if nested else "pvm (BM)"
        self.hv = PvmHypervisor(self.costs, self.events)
        self.locks = SptLockManager(
            self.costs, self.events,
            fine_grained=self.config.fine_grained_locks,
        )
        self.pcids = PcidMapper(self.vpid, enabled=self.config.pcid_mapping)
        self.prefaulter = Prefaulter(enabled=self.config.prefault)
        table_phys = self.host_phys
        if nested:
            #: The L1 VM's guest-physical space: shadow targets live here.
            self.l1_phys = table_phys = PhysicalMemory(
                "l1-vm", self.config.host_mem_bytes)
            # EPT01 below us is maintained by the unmodified L0: warm.
            self.memory = MemoryChain(
                self.host_phys, self.events, warm_ept01=True,
                l1_phys=self.l1_phys if self.shadow_paging else None)
        if self.shadow_paging:
            self.shadow = ShadowManager(
                table_phys, self.costs, self.memory.target,
                dual=self.config.kpti,
                translate_block=self.memory.target_block,
            )
        if not self.config.pcid_mapping:
            # Without per-process PCIDs every guest CR3 load flushes the
            # guest's TLB tag (no NOFLUSH bit usable) — the cold-start
            # penalty the PCID-mapping optimization removes.
            self.hv.switcher.on_guest_cr3_load = self._flush_on_cr3_load

    def _flush_on_cr3_load(self, clock, cpu_id: int) -> None:
        if cpu_id < len(self.contexts):
            self.contexts[cpu_id].mmu.drop_vpid(self.vpid)
        clock.advance(self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra)
        self.events.tlb_flush("cr3-load")

    def asid_for(self, proc: Process, kernel_half: bool = False) -> Asid:
        """TLB tag for a process under this stack's PCID policy."""
        return self.pcids.asid_for(proc.pcid, kernel_half)

    def tlb_tag(self, proc: Process) -> Optional[int]:
        """The user-half tag from the PCID window, without touching it."""
        hw = self.pcids.peek(proc.pcid)
        return None if hw is None else Asid(vpid=self.vpid, pcid=hw).key

    def tlb_owners(self) -> Dict[int, Process]:
        """Attribution needs an active, never-recycled PCID window: with
        the mapping off every process shares one tag, and a stolen slot
        may still cache its previous owner's translations."""
        if not self.pcids.enabled or self.pcids.recycled:
            return {}
        return super().tlb_owners()

    def new_context(self) -> CpuCtx:
        """Create one vCPU context (clock + private TLB)."""
        ctx = super().new_context()
        # The guest starts in user mode from the switcher's viewpoint.
        self.hv.switcher.state_for(ctx.cpu_id).world = GuestWorld.USER
        return ctx

    # -- the Figure 9 fault dance -----------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Architecture-specific guest page-fault dance."""
        vpn = fault.vaddr >> 12
        gpt_pte = proc.gpt.lookup(vpn)
        shadow_stale = (
            gpt_pte is not None and gpt_pte.permits(fault.access, user=True)
        )
        triaged = self.config.switcher_fault_triage and not shadow_stale
        if triaged:
            # §5 extension: the switcher recognizes a guest-PT fault and
            # injects it straight into the L2 kernel — a light
            # switcher-internal transition instead of a full exit to PVM.
            ctx.clock.advance(
                self.costs.fault_triage_check + self.costs.ring_transition
                + self.costs.direct_switch_extra
            )
            state = self.hv.switcher.state_for(ctx.cpu_id)
            state.world = GuestWorld.KERNEL
            self.events.switch(SwitchKind.PVM_DIRECT, ctx.clock.now, ctx.cpu_id)
            self.events.inject("#PF")
        else:
            # (1)-(2): the #PF lands in the switcher and exits to PVM —
            # one world switch, entirely inside L1.
            self.hv.switcher.vm_exit(ctx.clock, ctx.cpu_id, "#PF")
            if self.config.switcher_fault_triage:
                ctx.clock.advance(self.costs.fault_triage_check)
        if shadow_stale:
            # Shadow-stale fault: sync SPT12 directly, return to user.
            self._sync_shadow(ctx, proc, vpn, gpt_pte,
                              work_attr="spt_sync_per_entry")
            self.hv.switcher.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
            self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)
            return
        if not triaged:
            # (3)-(5): inject the #PF and enter the L2 kernel's handler.
            ctx.clock.advance(self.costs.irq_inject // 3)
            self.events.inject("#PF")
            self.hv.switcher.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.KERNEL)
        ctx.clock.advance(self.costs.pf_delivery)
        # (6): the L2 kernel fixes GPT2 ...
        fix = self.kernel.fix_fault(proc, vpn, fault.access)
        ctx.clock.advance(self.fault_body_ns(proc, fix))
        self.shadow.note_gpt_growth(proc)
        # ... each GPT2 write needing PVM's assistance (2n switches).
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        # (7): iret hypercall back into PVM (one switch) ...
        self.prefaulter.arm(proc.pid, vpn)
        self.hv.switcher.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:iret")
        ctx.clock.advance(self.costs.pvm_hypercall_handler)
        self.events.hypercall("iret")
        # (8): ... where the prefault optimization fills SPT12 now,
        # avoiding the otherwise-inevitable shadow-stale fault.
        if self.prefaulter.take(proc.pid, vpn):
            fresh = proc.gpt.lookup(vpn)
            if fresh is not None:
                self._sync_shadow(ctx, proc, vpn, fresh, work_attr="prefault_fill")
        # (9)-(10): return to the L2 user (one switch).
        self.hv.switcher.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
        self.events.fault(FaultPhase.GUEST_PT, ctx.clock.now, ctx.cpu_id)

    def on_segfault(self, ctx: CpuCtx, proc: Process) -> None:
        """SIGSEGV delivery: get back to v_ring3 from wherever the fault
        dance stopped, then run the handler upcall + sigreturn."""
        sw = self.hv.switcher
        state = sw.state_for(ctx.cpu_id)
        ctx.clock.advance(self.costs.pf_delivery)
        if state.world is GuestWorld.KERNEL:
            if self.config.direct_switch:
                sw.direct_switch_to_user(ctx.clock, ctx.cpu_id)
            else:
                sw.vm_exit(ctx.clock, ctx.cpu_id, "sysret")
                ctx.clock.advance(self.costs.pvm_syscall_dispatch)
                sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
        elif state.world is GuestWorld.HYPERVISOR:
            sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
        self._syscall_round_trip(ctx, proc)  # handler upcall + sigreturn

    def _sync_shadow(self, ctx: CpuCtx, proc: Process, vpn: int,
                     gpt_pte: Pte, work_attr: str) -> None:
        if gpt_pte.huge:
            vpn -= vpn % 512  # shadow the whole 2 MiB run at its base
        result = self.sync_shadow(ctx, proc, vpn, gpt_pte)
        work = getattr(self.costs, work_attr) * max(1, result.entry_writes // 2)
        self.locks.locked_fix(
            ctx.clock,
            pt_key=(proc.pid, vpn >> 9),
            gfn=gpt_pte.frame,
            work_ns=work,
            structural=result.structural,
        )

    # -- write-protected GPT2 ------------------------------------------------------------

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Each guest PTE write traps to PVM via the switcher: two world
        switches plus the emulation under the fine-grained locks.

        Under the §5 WP-less extension the writes are ordinary stores;
        the hypervisor validates and synchronizes the dirty entries in
        batch on the next iret, so only per-entry work is charged."""
        if self.config.wp_less_sync:
            ctx.clock.advance(
                writes * (self.costs.pte_write + self.costs.wpless_sync_per_entry)
            )
            self.events.emulate("wpless-batch-sync")
            return
        resume = self.hv.switcher.state_for(ctx.cpu_id).world
        if resume is GuestWorld.HYPERVISOR:
            resume = GuestWorld.KERNEL
        for _ in range(writes):
            self.hv.switcher.vm_exit(ctx.clock, ctx.cpu_id, "gpt-write")
            self.locks.locked_fix(
                ctx.clock, pt_key=("wp", proc.pid), gfn=proc.pid,
                work_ns=self.costs.wp_emulate_write,
                # Bulk construction (fork/exec) creates shadow pages and
                # parent/child links: inter-shadow-page state under the
                # meta lock, which is where PVM forks contend.
                structural=structural,
            )
            self.events.emulate("gpt-write")
            self.hv.switcher.vm_enter(ctx.clock, ctx.cpu_id, resume)

    # -- invalidation ----------------------------------------------------------------------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Zap stale shadow/TLB state after unmap/mprotect."""
        vpns = tuple(vpns)
        for vpn in vpns:
            removed = self.shadow.unmap(proc, vpn)
            if removed:
                self.locks.locked_fix(
                    ctx.clock, pt_key=(proc.pid, vpn >> 9), gfn=(proc.pid, vpn),
                    work_ns=self.costs.spt_sync_per_entry // 2,
                )
        self._flush_after_unmap(ctx, proc, len(vpns))
        self.audit_zap(ctx, proc, vpns)

    def invalidate_asid(self, ctx: CpuCtx, proc: Process) -> None:
        """Flush one process's translations."""
        if self.config.pcid_mapping:
            ctx.mmu.flush_pcid(ctx.clock, self.asid_for(proc, kernel_half=False))
            ctx.mmu.flush_pcid(ctx.clock, self.asid_for(proc, kernel_half=True))
        else:
            self._broadcast_vpid_flush(ctx)

    def _flush_after_unmap(self, ctx: CpuCtx, proc: Process, npages: int) -> None:
        if npages == 0:
            return
        if self.config.pcid_mapping:
            # Fine-grained: one PCID flush covers the batch; only this
            # process's translations are lost.
            ctx.mmu.flush_pcid(ctx.clock, self.asid_for(proc))
        else:
            # Coarse: hardware can only target the whole VPID, and stale
            # entries may be cached on every CPU — full shootdown.
            self._broadcast_vpid_flush(ctx)

    def _broadcast_vpid_flush(self, ctx: CpuCtx) -> None:
        ctx.mmu.flush_vpid(ctx.clock, self.vpid)
        for other in self.contexts:
            if other is ctx:
                continue
            other.mmu.drop_vpid(self.vpid)
            ctx.clock.advance(self.costs.tlb_shootdown_ipi)
        self.events.tlb_flush("vpid-broadcast")

    def on_cr3_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Scheduler switched processes (CR3 load)."""
        if not self.config.pcid_mapping:
            # All L2 spaces share one PCID: the switch must flush it,
            # which on this hardware means the whole VPID.
            ctx.mmu.flush_vpid(ctx.clock, self.vpid)

    # -- process lifecycle ---------------------------------------------------------------------

    def on_process_created(self, ctx: CpuCtx, child: Process) -> None:
        """Shadow-side bookkeeping for a new (forked) process."""
        parent = self.kernel.processes.get(child.parent_pid or -1)
        if parent is None:
            return
        # COW downgrade: the rmap lets PVM touch exactly the affected
        # shadow entries instead of zapping whole tables.
        for vpn in parent.cow_pages:
            spte = self.shadow.lookup(parent, vpn)
            if spte is not None and spte.writable:
                for half in self.shadow.halves(parent):
                    table = self.shadow.spt(parent, half)
                    if table.lookup(vpn) is not None:
                        table.protect(vpn, writable=False)
                self.locks.locked_fix(
                    ctx.clock, pt_key=(parent.pid, vpn >> 9),
                    gfn=(parent.pid, vpn), work_ns=30,
                )
        self.shadow.write_protect_gpt(child)

    # -- transitions ------------------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        sw = self.hv.switcher
        if self.config.direct_switch:
            # Figure 8: switcher-only user->kernel->user, no hypervisor.
            sw.direct_switch_to_kernel(ctx.clock, ctx.cpu_id)
            sw.direct_switch_to_user(
                ctx.clock, ctx.cpu_id,
                at_user_ring=self.config.advanced_direct_switch,
            )  # sysret hypercall (or h_ring3 sysret under the §5 extension)
            return
        # Slow path: both transitions bounce through the PVM hypervisor.
        sw.vm_exit(ctx.clock, ctx.cpu_id, "syscall")
        ctx.clock.advance(self.costs.pvm_syscall_dispatch)
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.KERNEL)
        sw.vm_exit(ctx.clock, ctx.cpu_id, "sysret")
        ctx.clock.advance(self.costs.pvm_syscall_dispatch)
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        sw = self.hv.switcher
        handler = {
            "hypercall": self.costs.pvm_hypercall_handler,
            "exception": self.costs.pvm_exception_handler,
            "msr": self.costs.pvm_msr_handler,
            "cpuid": self.costs.pvm_cpuid_handler,
            "pio": self.costs.pvm_pio_handler,
        }[kind]
        sw.vm_exit(ctx.clock, ctx.cpu_id, kind)
        ctx.clock.advance(handler)
        if self.nested and kind in ("exception", "msr"):
            ctx.clock.advance(self.costs.pvm_nst_event_extra)
        self.events.emulate(kind)
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
        if kind == "pio" and self.nested:
            # The L1 VMM's device backend does real I/O through the host
            # (ordinary single-level VM exits of the L1 VM).
            for _ in range(2):
                self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
                self.events.l0_trap("pio-backend")
                ctx.clock.advance(self.costs.pio_handler)
                self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)

    def virtio_doorbell(self, ctx: CpuCtx) -> None:
        """L2's kick is a hypercall into PVM's vhost; when nested, the
        backend's real I/O goes through the L1 VM's own virtio (one
        ordinary L1<->L0 leg) — no nested amplification."""
        sw = self.hv.switcher
        resume = sw.state_for(ctx.cpu_id).world
        if resume is GuestWorld.HYPERVISOR:
            resume = GuestWorld.USER
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:virtio-kick")
        ctx.clock.advance(self.costs.virtio_doorbell_handler)
        self.events.hypercall("send_ipi")  # vhost worker wakeup
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
        if self.nested:
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
            self.events.l0_trap("virtio-backend")
            self.l0_lock.run_locked(ctx.clock, self.costs.virtio_doorbell_handler)
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)

    # -- interrupts / halt ----------------------------------------------------------------------------

    def deliver_timer(self, ctx: CpuCtx) -> None:
        """§3.3.3: at most one L0 exit (hardware, for the L1 VM itself);
        everything else is switcher + virtual APIC between L1 and L2."""
        if self.nested:
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
            self.events.l0_trap("interrupt")
            self.l0_lock.run_locked(ctx.clock, self.costs.irq_inject)
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.hv.irq.l0_inject(Vector.TIMER)
        sw = self.hv.switcher
        resume = sw.state_for(ctx.cpu_id).world
        if resume is GuestWorld.HYPERVISOR:
            resume = GuestWorld.USER
        sw.vm_exit(ctx.clock, ctx.cpu_id, "interrupt")
        ctx.clock.advance(self.costs.irq_inject)
        delivered = self.hv.irq.deliver()
        if delivered is None:
            sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
            return
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.KERNEL)
        ctx.clock.advance(self.costs.irq_handler)
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:iret")
        ctx.clock.advance(self.costs.pvm_hypercall_handler)
        self.events.hypercall("iret")
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
        self.events.interrupt("timer")

    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT via hypercall: sleep and wake without root-mode switches
        even when nested — the fluidanimate win of §4.3."""
        sw = self.hv.switcher
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:halt")
        self.events.hypercall("halt")
        ctx.clock.advance(wake_after_ns)
        ctx.clock.advance(self.costs.halt_wake_pvm)
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)

    # -- helpers ------------------------------------------------------------------------------------------

