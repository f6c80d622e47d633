"""PVM's switcher CPU side, and the PVM machine: ``pvm (BM)`` and ``pvm (NST)``.

PVM is two separable halves: the switcher, which does every world
switch (§3.1-3.3), and shadow paging (§3.4).  :class:`PvmSwitcherMachine`
is the first half, shared by both paging designs built on it;
:class:`PvmMachine` adds shadow paging, and
:class:`~repro.core.direct_paging.DirectPagingMachine` direct paging.

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
from repro.hw.events import FaultPhase, SwitchKind, TraceEvent
from repro.hw.pagetable import Pte
from repro.hw.types import Asid, PageFault, asid_key
from repro.hypervisors.base import CpuCtx, Machine

_USER = GuestWorld.USER
_KERNEL = GuestWorld.KERNEL
_HYPERVISOR = GuestWorld.HYPERVISOR
_KEY_DIRECT = SwitchKind.PVM_DIRECT.value
_KEY_GUEST_PT = FaultPhase.GUEST_PT.value
_KEY_SHADOW_PT = FaultPhase.SHADOW_PT.value


class PvmSwitcherMachine(Machine):
    """PVM's CPU side: every world switch goes through the switcher.

    It owns the PCID policy and the TLB flushes, the syscall,
    privileged, timer, HLT and doorbell paths, the iret hypercall and the
    costs every guest-fault dance reads.  The dance itself belongs to the
    paging design: each subclass runs it from #PF to iret in one handler.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hv = PvmHypervisor(self.costs, self.events)
        self.locks = SptLockManager(
            self.costs, self.events,
            fine_grained=self.config.fine_grained_locks,
        )
        # The dances' switcher, its per-CPU states and the SPT lock
        # manager's fix, resolved once (none is ever rebound).
        self._switcher = self.hv.switcher
        self._cpu_states = self._switcher.states
        self._locked_fix = self.locks.locked_fix
        self.pcids = PcidMapper(self.vpid, enabled=self.config.pcid_mapping)
        self._user_asid = self.pcids.asid_for
        costs = self.costs
        # Running deprivileged inside a VM instance adds event-delivery
        # bookkeeping to the exception and MSR paths.
        nst_extra = costs.pvm_nst_event_extra if self.nested else 0
        # Guest-fault dance costs, read once (validated non-negative
        # ints, so the dances add them to ``clock.now`` directly).
        self._inject_pf_ns = costs.irq_inject // 3
        self._pf_delivery_ns = costs.pf_delivery
        self._hypercall_ns = costs.pvm_hypercall_handler
        self._hypercall_counts = self.events.hypercalls
        self._injection_counts = self.events.injections
        #: Handler cost of one privileged operation, served by PVM.
        self.pvm_handler_ns = {
            "hypercall": costs.pvm_hypercall_handler,
            "exception": costs.pvm_exception_handler + nst_extra,
            "msr": costs.pvm_msr_handler + nst_extra,
            "cpuid": costs.pvm_cpuid_handler,
            "pio": costs.pvm_pio_handler,
        }
        if not self.config.pcid_mapping:
            # Without per-process PCIDs every guest CR3 load flushes the
            # guest's TLB tag (no NOFLUSH bit usable) — the cold-start
            # penalty the PCID-mapping optimization removes.
            self.hv.switcher.on_guest_cr3_load = self._flush_on_cr3_load

    def _flush_on_cr3_load(self, clock, cpu_id: int) -> None:
        if cpu_id < len(self.contexts):
            self.contexts[cpu_id].mmu.drop_vpid(self.vpid)
        clock.now += self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra
        self.events.tlb_flushes["cr3-load"] += 1

    def asid_for(self, proc: Process, kernel_half: bool = False) -> Asid:
        """TLB tag for a process under this stack's PCID policy."""
        return self.pcids.asid_for(proc.pcid, kernel_half)

    def tlb_tag(self, proc: Process) -> Optional[int]:
        """The user-half tag from the PCID window, without touching it."""
        hw = self.pcids.peek(proc.pcid)
        return None if hw is None else asid_key(self.vpid, hw)

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
        self.hv.switcher.state_for(ctx.cpu_id).world = _USER
        return ctx

    def _resume_world(self, ctx: CpuCtx, fallback: GuestWorld) -> GuestWorld:
        """The guest world to re-enter after a trap taken now (``fallback``
        when the vCPU is already in the hypervisor)."""
        world = self._cpu_states[ctx.cpu_id].world
        return fallback if world is _HYPERVISOR else world

    def _iret_hypercall(self, ctx: CpuCtx) -> None:
        """The L2 kernel's iret: one hypercall (switch) into PVM."""
        self._switcher.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:iret")
        ctx.clock.now += self._hypercall_ns
        self._hypercall_counts["iret"] += 1

    def on_segfault(self, ctx: CpuCtx, proc: Process) -> None:
        """SIGSEGV delivery: get back to v_ring3 from wherever the fault
        dance stopped, then run the handler upcall + sigreturn."""
        sw = self.hv.switcher
        state = sw.state_for(ctx.cpu_id)
        ctx.clock.now += self.costs.pf_delivery
        if state.world is _KERNEL:
            if self.config.direct_switch:
                sw.direct_switch_to_user(ctx.clock, ctx.cpu_id)
            else:
                sw.vm_exit(ctx.clock, ctx.cpu_id, "sysret")
                ctx.clock.now += self.costs.pvm_syscall_dispatch
                sw.vm_enter(ctx.clock, ctx.cpu_id, _USER)
        elif state.world is _HYPERVISOR:
            sw.vm_enter(ctx.clock, ctx.cpu_id, _USER)
        self._syscall_round_trip(ctx, proc)  # handler upcall + sigreturn

    # -- invalidation ----------------------------------------------------------------------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Flush stale TLB state after unmap/mprotect."""
        vpns = tuple(vpns)
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
            ctx.clock.now += self.costs.tlb_shootdown_ipi
        self.events.tlb_flushes["vpid-broadcast"] += 1

    def on_cr3_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Scheduler switched processes (CR3 load)."""
        if not self.config.pcid_mapping:
            # All L2 spaces share one PCID: the switch must flush it,
            # which on this hardware means the whole VPID.
            ctx.mmu.flush_vpid(ctx.clock, self.vpid)

    # -- transitions ------------------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        sw, clock, cpu = self.hv.switcher, ctx.clock, ctx.cpu_id
        if self.config.direct_switch:
            # Figure 8: switcher-only user->kernel->user, no hypervisor;
            # the sysret is a hypercall (or, under the §5 extension, an
            # h_ring3 sysret).
            sw.direct_syscall(clock, cpu, self.config.advanced_direct_switch)
            return
        # Slow path: both transitions bounce through the PVM hypervisor.
        dispatch = self.costs.pvm_syscall_dispatch
        sw.vm_exit(clock, cpu, "syscall")
        clock.now += dispatch
        sw.vm_enter(clock, cpu, _KERNEL)
        sw.vm_exit(clock, cpu, "sysret")
        clock.now += dispatch
        sw.vm_enter(clock, cpu, _USER)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        sw, clock, cpu = self.hv.switcher, ctx.clock, ctx.cpu_id
        sw.vm_exit(clock, cpu, kind)
        clock.now += self.pvm_handler_ns[kind]
        self._emulation_counts[kind] += 1
        sw.vm_enter(clock, cpu, _USER)
        if kind == "pio" and self.nested:
            # The L1 VMM's device backend does real I/O through the host
            # (ordinary single-level VM exits of the L1 VM).
            for _ in range(2):
                self._hw_round_trip(ctx, "pio-backend", self.costs.pio_handler)

    def virtio_doorbell(self, ctx: CpuCtx) -> None:
        """L2's kick is a hypercall into PVM's vhost; when nested, the
        backend's real I/O goes through the L1 VM's own virtio (one
        ordinary L1<->L0 leg) — no nested amplification."""
        sw = self.hv.switcher
        resume = self._resume_world(ctx, _USER)
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:virtio-kick")
        ctx.clock.now += self.costs.virtio_doorbell_handler
        self._hypercall_counts["send_ipi"] += 1  # vhost wakeup
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
        if self.nested:
            self._hw_round_trip(ctx, "virtio-backend",
                                self.costs.virtio_doorbell_handler,
                                self.l0_lock)

    # -- interrupts / halt ----------------------------------------------------------------------------

    def deliver_timer(self, ctx: CpuCtx) -> None:
        """§3.3.3: at most one L0 exit (hardware, for the L1 VM itself);
        everything else is switcher + virtual APIC between L1 and L2."""
        if self.nested:
            self._hw_round_trip(ctx, "interrupt", self.costs.irq_inject,
                                self.l0_lock)
        self.hv.irq.l0_inject(Vector.TIMER)
        sw = self.hv.switcher
        resume = self._resume_world(ctx, _USER)
        sw.vm_exit(ctx.clock, ctx.cpu_id, "interrupt")
        ctx.clock.now += self.costs.irq_inject
        delivered = self.hv.irq.deliver()
        if delivered is None:
            sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
            return
        sw.vm_enter(ctx.clock, ctx.cpu_id, _KERNEL)
        ctx.clock.now += self.costs.irq_handler
        self._iret_hypercall(ctx)
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)
        self._interrupt_counts["timer"] += 1

    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT via hypercall: sleep and wake without root-mode switches
        even when nested — the fluidanimate win of §4.3."""
        sw = self.hv.switcher
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:halt")
        self._hypercall_counts["halt"] += 1
        ctx.clock.advance(wake_after_ns)
        ctx.clock.now += self.costs.halt_wake_pvm
        sw.vm_enter(ctx.clock, ctx.cpu_id, _USER)


class PvmMachine(PvmSwitcherMachine):
    """Secure container under the PVM guest hypervisor: the switcher
    CPU side plus shadow paging (SPT12 over the memory chain)."""

    def __init__(self, *args, nested: bool = False, **kwargs) -> None:
        # Named and shaped before the base builds the guest kernel, which
        # names its page tables after the machine, and the memory chain.
        self.nested = nested
        self.name = "pvm (NST)" if nested else "pvm (BM)"
        # Nested, shadow targets are L1 frames, and the unmodified L0
        # below maintains a warm EPT01.
        self.l1_level = self.warm_ept01 = nested
        super().__init__(*args, **kwargs)
        self.prefaulter = Prefaulter(enabled=self.config.prefault)
        self.shadow = ShadowManager(
            self.l1_phys or self.host_phys, self.costs, self.memory.target,
            dual=self.config.kpti,
            translate_block=self.memory.target_block,
        )
        costs = self.costs
        self._triage = triage = self.config.switcher_fault_triage
        #: The triage check, paid on every exit-to-PVM fault (0 when off),
        #: and the switcher-internal injection it buys for guest-PT faults.
        self._triage_check_ns = costs.fault_triage_check if triage else 0
        self._triage_inject_ns = (costs.fault_triage_check
                                  + costs.ring_transition
                                  + costs.direct_switch_extra)
        self._stale_sync_ns = costs.spt_sync_per_entry
        self._prefault_ns = costs.prefault_fill
        self._wp_less = self.config.wp_less_sync
        self._wp_write_ns = costs.wp_emulate_write

    # -- the Figure 9 fault dance -----------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """The Figure 9 dance, #PF to iret, in one handler."""
        vpn = fault.vaddr >> 12
        access = fault.access
        clock, cpu, trace = ctx.clock, ctx.cpu_id, self._trace
        sw = self._switcher
        gpt_pte = proc.gpt.lookup(vpn)
        shadow_stale = gpt_pte is not None and gpt_pte.permits(access, True)
        if self._triage and not shadow_stale:
            # §5 extension: the switcher recognizes a guest-PT fault and
            # injects it straight into the L2 kernel — a light
            # switcher-internal transition instead of a full exit to PVM.
            clock.now += self._triage_inject_ns
            self._cpu_states[cpu].world = _KERNEL
            self._switch_counts[_KEY_DIRECT] += 1
            if trace is not None:
                trace.append(TraceEvent(clock.now, cpu, "switch", _KEY_DIRECT))
            self._injection_counts["#PF"] += 1
        else:
            # (1)-(2): the #PF lands in the switcher and exits to PVM —
            # one world switch, entirely inside L1.
            sw.vm_exit(clock, cpu, "#PF")
            clock.now += self._triage_check_ns
            if shadow_stale:
                # Shadow-stale fault: sync SPT12 directly, return to user.
                self._sync_shadow(ctx, proc, vpn, gpt_pte,
                                  self._stale_sync_ns)
                sw.vm_enter(clock, cpu, _USER)
                self._fault_counts[_KEY_SHADOW_PT] += 1
                if trace is not None:
                    trace.append(TraceEvent(clock.now, cpu, "fault",
                                            _KEY_SHADOW_PT))
                return
            # (3)-(5): PVM injects the #PF and enters the L2 kernel's
            # handler.
            clock.now += self._inject_pf_ns
            self._injection_counts["#PF"] += 1
            sw.vm_enter(clock, cpu, _KERNEL)
        # (6): the L2 kernel's handler fixes its own page table.
        clock.now += self._pf_delivery_ns
        fix = self.kernel.fix_fault(proc, vpn, access, gpt_pte)
        clock.now += self.fault_body_ns(proc, fix)
        self.shadow.note_gpt_growth(proc)
        # Each GPT2 write of the fix needs PVM's assistance (2n switches).
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        # (7): the iret hypercall into PVM.
        self._iret_hypercall(ctx)
        # (8): the prefault optimization fills SPT12 on the iret path,
        # avoiding the otherwise-inevitable shadow-stale fault.  The fix's
        # PTE is the guest entry now covering ``vpn``.
        if self.prefaulter.enabled:
            self._sync_shadow(ctx, proc, vpn, fix.pte, self._prefault_ns)
        # (9)-(10): back to the L2 user.
        sw.vm_enter(clock, cpu, _USER)
        self._fault_counts[_KEY_GUEST_PT] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, cpu, "fault", _KEY_GUEST_PT))

    def _sync_shadow(self, ctx: CpuCtx, proc: Process, vpn: int,
                     gpt_pte: Pte, per_entry_ns: int) -> None:
        """Install the shadow entries for one guest PTE and charge the
        work under the SPT locks."""
        if gpt_pte.huge:
            vpn -= vpn % 512  # shadow the whole 2 MiB run at its base
        result = self.shadow.sync(proc, vpn, gpt_pte)
        san = self.sanitizers
        if san is not None:
            san.shadow.after_sync(ctx, proc, vpn, gpt_pte, result)
        # locked_fix(clock, pt_key, gfn, work_ns, structural)
        self._locked_fix(ctx.clock, (proc.pid, vpn >> 9), gpt_pte.frame,
                         per_entry_ns * (result.entry_writes // 2 or 1),
                         result.structural)

    # -- write-protected GPT2 ------------------------------------------------------------

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Each guest PTE write traps to PVM via the switcher: two world
        switches plus the emulation under the fine-grained locks.

        Under the §5 WP-less extension the writes are ordinary stores;
        the hypervisor validates and synchronizes the dirty entries in
        batch on the next iret, so only per-entry work is charged."""
        if self._wp_less:
            ctx.clock.advance(
                writes * (self.costs.pte_write + self.costs.wpless_sync_per_entry)
            )
            self._emulation_counts["wpless-batch-sync"] += 1
            return
        clock, cpu = ctx.clock, ctx.cpu_id
        sw, fix = self._switcher, self._locked_fix
        resume = self._resume_world(ctx, _KERNEL)
        pt_key, pid, work_ns = ("wp", proc.pid), proc.pid, self._wp_write_ns
        counts = self._emulation_counts
        for _ in range(writes):
            sw.vm_exit(clock, cpu, "gpt-write")
            # Bulk construction (fork/exec) creates shadow pages and
            # parent/child links: inter-shadow-page state under the meta
            # lock, which is where PVM forks contend.
            fix(clock, pt_key, pid, work_ns, structural)
            counts["gpt-write"] += 1
            sw.vm_enter(clock, cpu, resume)

    # -- invalidation ----------------------------------------------------------------------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Zap stale shadow/TLB state after unmap/mprotect."""
        vpns = tuple(vpns)
        removed = self.shadow.unmap_pages(proc, vpns)
        for vpn in vpns:
            if vpn in removed:
                # locked_fix(clock, pt_key, gfn, work_ns)
                self._locked_fix(ctx.clock, (proc.pid, vpn >> 9),
                                 (proc.pid, vpn),
                                 self.costs.spt_sync_per_entry // 2)
        super().invalidate_pages(ctx, proc, vpns)

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
                self._locked_fix(ctx.clock, (parent.pid, vpn >> 9),
                                 (parent.pid, vpn), 30)
        self.shadow.write_protect_gpt(child)
