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

from repro.hw.events import SwitchKind, TraceEvent
from repro.hw.vmx import ExitReason, PendingEvent, Vmcs, VmcsShadow, VmxCapabilities
from repro.hypervisors.base import CpuCtx, Machine

#: Counter keys of the two hardware switch kinds (the kinds' values).
_KEY_L1_L0 = SwitchKind.HW_L1_L0.value
_KEY_L2_L0 = SwitchKind.HW_L2_L0.value
_EXCEPTION = ExitReason.EXCEPTION


class _TrapKeys(dict):
    """``reason -> prefix + reason``, each key built on first use."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, reason: str) -> str:
        key = self[reason] = self.prefix + reason
        return key


class NestedVmxMixin:
    """Mixin providing the L2<->L1-via-L0 switch protocol.

    Host classes must be :class:`~repro.hypervisors.base.Machine`
    subclasses; the mixin only uses `costs`, `l0_lock`, and the leg
    costs, handler table and in-place counters `Machine` binds at
    construction.  Every leg counts its switches, L0 traps and
    emulations in place and appends its switches to a detailed trace,
    in the order the protocol takes them.
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
        #: ``l0_exits`` keys of the forwarded, service and direct legs.
        self._l2_exit_keys = _TrapKeys("l2-exit:")
        self._l1_service_keys = _TrapKeys("l1-service:")
        self._l2_direct_keys = _TrapKeys("l2-direct:")
        self._forward_ns = self.costs.l0_forward_overhead
        self._merge_ns = self.costs.vmcs_merge_reload

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
        injection state for this VM.  The forwarded event waits in
        VMCS01 until L1 resumes L2.
        """
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit(reason)
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L2_L0] += 1
        self._l0_counts[self._l2_exit_keys[reason]] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L2_L0))
        self.l0_lock.run_locked(clock, self._forward_ns + serialized_ns)
        self.vmcs01.queue_injection(
            PendingEvent(kind=_EXCEPTION, payload=reason)
        )
        clock.now += self._hw_switch_ns
        counts[_KEY_L1_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))

    def l1_resume_l2(self: Machine, ctx: CpuCtx, serialized_ns: int = 0) -> None:
        """L1 VMRESUMEs L2: L1 -> L0 (VMRESUME trap) -> L2 (real entry).

        Two world switches, one L0 exit, dominated by the VMCS02
        merge/reload in root mode (serialized on the L0 service lock).
        L1 has consumed the events forwarded to it, so VMCS01's
        injection queue is drained.
        """
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L1_L0] += 1
        self._l0_counts["vmresume"] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))
        self.l0_lock.run_locked(clock, self._merge_ns + serialized_ns)
        self.vmcs01.pending.clear()
        self.vmcs_shadow.merge()
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_entry("vmresume")
        clock.now += self._hw_switch_ns
        counts[_KEY_L2_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L2_L0))

    def l1_l0_service(self: Machine, ctx: CpuCtx, work_ns: int,
                      reason: str = "service") -> None:
        """An L1 privileged operation emulated by L0 (e.g. a trapped
        write to a read-only nested table): L1 -> L0 -> L1."""
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L1_L0] += 1
        self._l0_counts[self._l1_service_keys[reason]] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))
        self.l0_lock.run_locked(clock, work_ns)
        self._emulation_counts[reason] += 1
        clock.now += self._hw_switch_ns
        counts[_KEY_L1_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))

    def l2_l0_roundtrip(self: Machine, ctx: CpuCtx, work_ns: int,
                        reason: str = "l0-direct") -> None:
        """An L2 exit L0 handles directly without waking L1 (e.g. the
        final EPT02 fix): L2 -> L0 -> L2."""
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit(reason)
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L2_L0] += 1
        key = self._l2_direct_keys[reason]
        self._l0_counts[key] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L2_L0))
        self.l0_lock.run_locked(clock, work_ns)
        self._emulation_counts[reason] += 1
        if san is not None:
            # Direct L0 handling re-enters on the unchanged VMCS02 — no
            # merge needed (nothing bumped VMCS01/VMCS12 generations).
            san.vm_entry(key)
        clock.now += self._hw_switch_ns
        counts[_KEY_L2_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L2_L0))

    # -- composite round trips ------------------------------------------------

    def nested_privileged_roundtrip(self: Machine, ctx: CpuCtx, handler_ns: int,
                                    reason: str) -> None:
        """A privileged L2 operation handled by L1 (Table 1's kvm NST):
        L2 exit forwarded to L1, L1 handles (``handler_ns``, a validated
        cost), L1 resumes L2.  Four world switches, two L0 exits
        (§2.1)."""
        self.l2_exit_to_l1(ctx, reason)
        ctx.clock.now += handler_ns
        self._emulation_counts[reason] += 1
        self.l1_resume_l2(ctx)

    # -- the CPU side of both nested-VT-x machines ----------------------------

    def _privileged(self: Machine, ctx: CpuCtx, kind: str) -> None:
        """One privileged L2 operation, forwarded to L1 and resumed."""
        self.nested_privileged_roundtrip(ctx, self.vmx_handler_ns[kind], kind)

    def virtio_doorbell(self: Machine, ctx: CpuCtx) -> None:
        """L2's kick is forwarded to L1's vhost, whose backend I/O rides
        L1's own virtio to the host — a nested round trip plus one
        ordinary L1<->L0 leg."""
        handler_ns = self.costs.virtio_doorbell_handler
        self.nested_privileged_roundtrip(ctx, handler_ns, "virtio-doorbell")
        self._hw_round_trip(ctx, "virtio-backend", handler_ns, self.l0_lock)

    def deliver_timer(self: Machine, ctx: CpuCtx) -> None:
        """External interrupt: L2 exits to L0, L0 injects into L1, L1
        handles and re-enters L2 through a full merge/reload."""
        san = self.vmx_sanitizer
        if san is not None:
            san.vm_exit("interrupt")
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L2_L0] += 1
        self._l0_counts["interrupt"] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L2_L0))
        self.l0_lock.run_locked(clock, self.costs.irq_inject)
        clock.now += self._hw_switch_ns
        counts[_KEY_L1_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))
        clock.now += self.costs.irq_handler
        self.l1_resume_l2(ctx)
        self._interrupt_counts["timer"] += 1

    def halt(self: Machine, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT traps through the full nested path in both directions."""
        self.l2_exit_to_l1(ctx, "hlt")
        ctx.clock.advance(wake_after_ns)
        ctx.clock.now += self.costs.halt_wake_hw
        self.l1_resume_l2(ctx)
        self._emulation_counts["hlt"] += 1
