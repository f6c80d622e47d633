"""Shared machinery for hardware-assisted 2-level nesting.

Implements the trap-forwarding protocol of §2.1 / Figure 3: every L2
exit lands in L0 (root mode), which forwards it to L1 by synthesizing
the event into VMCS01; every L1 VMRESUME traps back to L0, which merges
VMCS01+VMCS12 into the shadow VMCS02 before the real entry.  The L0
root-mode work (forwarding, merging, and — for memory faults — the
EPT02/shadow updates, which live under L0's per-VM mmu_lock) is
*serialized* on the machine's ``l0_lock``: this is the "L0 becomes the
bottleneck" effect behind Figures 10-12.
"""

from __future__ import annotations

from repro.hw.events import SwitchKind
from repro.hw.vmx import ExitReason, PendingEvent, Vmcs, VmcsShadow, VmxCapabilities
from repro.hypervisors.base import CpuCtx, Machine


class NestedVmxMixin:
    """Mixin providing the L2<->L1-via-L0 switch protocol.

    Host classes must be :class:`~repro.hypervisors.base.Machine`
    subclasses; the mixin only uses `costs`, `events`, and `l0_lock`.
    """

    def init_nested_vmx(self: Machine) -> None:
        """Create VMCS01/VMCS12 and the shadow VMCS02."""
        self.vmcs01 = Vmcs(name="VMCS01", vpid=1)
        self.vmcs12 = Vmcs(name="VMCS12", vpid=2)
        self.vmcs_shadow = VmcsShadow(self.vmcs01, self.vmcs12)
        self.caps = VmxCapabilities.emulated_nested()
        self.caps.require_vmx(self.name)
        #: VMX state-machine sanitizer (repro.sanitize); None when off.
        self.vmx_sanitizer = None

    def vmcs02(self: Machine) -> VmcsShadow:
        return self.vmcs_shadow

    # -- protocol legs -----------------------------------------------------

    def l2_exit_to_l1(self: Machine, ctx: CpuCtx, reason: str,
                      serialized_ns: int = 0) -> None:
        """An L2 trap delivered to L1: L2 -> L0 (exit) -> L1 (entry).

        Two world switches, one L0 exit.  ``serialized_ns`` is extra L0
        root-mode work beyond forwarding that must hold the L0 service
        lock (e.g. shadow-MMU work); the forward overhead itself is
        charged under the lock too, since it manipulates shared VMCS and
        injection state for this VM.
        """
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit(reason)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L2_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("l2-exit:" + reason)
        self.l0_lock.run_locked(
            ctx.clock, self.costs.l0_forward_overhead + serialized_ns
        )
        self.vmcs01.queue_injection(
            PendingEvent(kind=ExitReason.EXCEPTION, payload=reason)
        )
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)

    def l1_resume_l2(self: Machine, ctx: CpuCtx, serialized_ns: int = 0) -> None:
        """L1 VMRESUMEs L2: L1 -> L0 (VMRESUME trap) -> L2 (real entry).

        Two world switches, one L0 exit, dominated by the VMCS02
        merge/reload in root mode (serialized on the L0 service lock).
        """
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("vmresume")
        self.l0_lock.run_locked(
            ctx.clock, self.costs.vmcs_merge_reload + serialized_ns
        )
        self.vmcs_shadow.merge()
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_entry("vmresume")
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L2_L0, ctx.clock.now, ctx.cpu_id)

    def l1_l0_service(self: Machine, ctx: CpuCtx, work_ns: int,
                      reason: str = "service") -> None:
        """An L1 privileged operation emulated by L0 (e.g. a trapped
        write to a read-only nested table): L1 -> L0 -> L1."""
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("l1-service:" + reason)
        self.l0_lock.run_locked(ctx.clock, work_ns)
        self.events.emulate(reason)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)

    def l2_l0_roundtrip(self: Machine, ctx: CpuCtx, work_ns: int,
                        reason: str = "l0-direct") -> None:
        """An L2 exit L0 handles directly without waking L1 (e.g. the
        final EPT02 fix): L2 -> L0 -> L2."""
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit(reason)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L2_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("l2-direct:" + reason)
        self.l0_lock.run_locked(ctx.clock, work_ns)
        self.events.emulate(reason)
        if san is not None:
            # Direct L0 handling re-enters on the unchanged VMCS02 — no
            # merge needed (nothing bumped VMCS01/VMCS12 generations).
            san.vm_entry("l2-direct:" + reason)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L2_L0, ctx.clock.now, ctx.cpu_id)

    # -- composite round trips ------------------------------------------------

    def nested_privileged_roundtrip(self: Machine, ctx: CpuCtx, handler_ns: int,
                                    reason: str) -> None:
        """A privileged L2 operation handled by L1 (Table 1's kvm NST):
        L2 exit forwarded to L1, L1 handles, L1 resumes L2.  Four world
        switches, two L0 exits (§2.1)."""
        self.l2_exit_to_l1(ctx, reason)
        ctx.clock.advance(handler_ns)
        self.events.emulate(reason)
        self.l1_resume_l2(ctx)

    # -- the CPU side of both nested-VT-x machines ----------------------------

    def _privileged(self: Machine, ctx: CpuCtx, kind: str) -> None:
        """One privileged L2 operation, forwarded to L1 and resumed."""
        self.nested_privileged_roundtrip(ctx, self.vmx_handler_ns(kind), kind)

    def virtio_doorbell(self: Machine, ctx: CpuCtx) -> None:
        """L2's kick is forwarded to L1's vhost, whose backend I/O rides
        L1's own virtio to the host — a nested round trip plus one
        ordinary L1<->L0 leg."""
        self.nested_privileged_roundtrip(
            ctx, self.costs.virtio_doorbell_handler, "virtio-doorbell"
        )
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("virtio-backend")
        self.l0_lock.run_locked(ctx.clock, self.costs.virtio_doorbell_handler)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)

    def deliver_timer(self: Machine, ctx: CpuCtx) -> None:
        """External interrupt: L2 exits to L0, L0 injects into L1, L1
        handles and re-enters L2 through a full merge/reload."""
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit("interrupt")
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L2_L0, ctx.clock.now, ctx.cpu_id)
        self.events.l0_trap("interrupt")
        self.l0_lock.run_locked(ctx.clock, self.costs.irq_inject)
        ctx.clock.advance(self.costs.hw_world_switch)
        self.events.switch(SwitchKind.HW_L1_L0, ctx.clock.now, ctx.cpu_id)
        ctx.clock.advance(self.costs.irq_handler)
        self.l1_resume_l2(ctx)
        self.events.interrupt("timer")

    def halt(self: Machine, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT traps through the full nested path in both directions."""
        self.l2_exit_to_l1(ctx, "hlt")
        ctx.clock.advance(wake_after_ns)
        ctx.clock.advance(self.costs.halt_wake_hw)
        self.l1_resume_l2(ctx)
        self.events.emulate("hlt")
