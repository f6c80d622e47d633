"""kvm-ept (BM): single-level virtualization with full VT-x + EPT.

The paper's best-case baseline.  Guest page faults are handled entirely
inside the guest (no exits); only EPT violations — first touches of
guest-physical frames — exit to the L0 hypervisor, whose TDP MMU fixes
them with fine-grained synchronization (no global-lock collapse).
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import FaultPhase, SwitchKind
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import AccessType, EptViolation
from repro.hw.vmx import VmxCapabilities
from repro.hypervisors.base import CpuCtx, Machine


def install_ept(ept: PageTable, gfn: int, target: int) -> int:
    """Map gfn -> target in an extended table; returns levels written."""
    if ept.lookup(gfn) is not None:
        # Permission upgrade or spurious: rewrite leaf in place.
        ept.protect(gfn, writable=True)
        return 1
    result = ept.map(gfn, Pte(frame=target, writable=True, user=False))
    return len(result.written_frames)


class KvmMachine(Machine):
    """Single-level VT-x: the CPU side both bare-metal KVM machines share.

    Every privileged operation, interrupt and HLT is one hardware exit
    to L0 and one entry back.
    """

    nested = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.caps = VmxCapabilities.bare_metal()
        self.caps.require_vmx(self.name)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        """Hardware-assisted trap: exit to root mode, handle, re-enter.

        KVM can often access MSRs directly from non-root mode; the
        paper's kvm MSR row reflects a full exit + emulate anyway."""
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.l0_trap(kind)
        ctx.clock.advance(self.vmx_handler_ns(kind))
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.emulate(kind)

    # -- interrupts / halt --------------------------------------------------------

    def deliver_timer(self, ctx: CpuCtx) -> None:
        """External interrupt: exit to L0, inject, resume, guest handler."""
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.l0_trap("interrupt")
        self.l0_lock.run_locked(ctx.clock, self.costs.irq_inject)
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        ctx.clock.advance(self.costs.irq_handler)
        self.events.interrupt("timer")

    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT exits to L0; wakeup via hardware event injection."""
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.l0_trap("hlt")
        ctx.clock.advance(wake_after_ns)
        ctx.clock.advance(self.costs.halt_wake_hw)
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.emulate("hlt")


class KvmEptMachine(KvmMachine):
    """Secure container in a regular VM on bare metal (kvm-ept BM)."""

    name = "kvm-ept (BM)"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: EPT01: guest frame number -> host frame number.
        self.ept01 = PageTable(self.host_phys, name="EPT01")

    # -- translation --------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""
        return ctx.mmu.access_2d(
            ctx.clock, self.asid_for(proc), proc.gpt, self.ept01, vpn, access,
            user=True,
        )

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        """EPT violation: one hardware round trip to L0's TDP MMU."""
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)  # VM exit
        self.events.l0_trap("ept-violation")
        gfn = violation.gpa >> 12
        huge_base = self.huge_block_base(gfn)
        if huge_base is not None and self.ept01.lookup(gfn) is None:
            # Back the whole 2 MiB guest run with one huge EPT entry.
            hfn = self.memory.backing_block(huge_base)
            self.ept01.map_huge(huge_base, Pte(frame=hfn, writable=True,
                                               user=False, huge=True))
            levels = 1
        else:
            hfn = self.memory.backing_frame(gfn)
            levels = install_ept(self.ept01, gfn, hfn)
        ctx.clock.advance(levels * self.costs.ept_fix_per_level)
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)  # VM entry
        self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """EPT hardware: guest page-table writes are ordinary stores."""
        ctx.clock.advance(writes * self.costs.pte_write)

    def discard_gfn_backing(self, gfn: int) -> bool:
        """Balloon release: zap the EPT entry before freeing backing."""
        if self.ept01.lookup(gfn) is not None and not self.ept01.lookup(gfn).huge:
            self.ept01.unmap(gfn)
        return super().discard_gfn_backing(gfn)

    def teardown_guest_memory(self) -> None:
        """Eviction: drop the EPT tree before freeing the backing."""
        self.ept01.destroy()
        super().teardown_guest_memory()
