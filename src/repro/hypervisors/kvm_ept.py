"""kvm-ept (BM): single-level virtualization with full VT-x + EPT.

The paper's best-case baseline.  Guest page faults are handled entirely
inside the guest (no exits); only EPT violations — first touches of
guest-physical frames — exit to the L0 hypervisor, whose TDP MMU fixes
them with fine-grained synchronization (no global-lock collapse).
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import FaultPhase, SwitchKind, TraceEvent
from repro.hw.pagetable import PageTable
from repro.hw.types import EptViolation
from repro.hw.vmx import VmxCapabilities
from repro.hypervisors.base import CpuCtx, Machine

_HW_L1_L0 = SwitchKind.HW_L1_L0
_KEY_SHADOW_PT = FaultPhase.SHADOW_PT.value


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
        self._hw_round_trip(ctx, kind, self.vmx_handler_ns[kind])
        self._emulation_counts[kind] += 1

    # -- interrupts / halt --------------------------------------------------------

    def deliver_timer(self, ctx: CpuCtx) -> None:
        """External interrupt: exit to L0, inject, resume, guest handler."""
        self._hw_round_trip(ctx, "interrupt", self.costs.irq_inject,
                            self.l0_lock)
        ctx.clock.now += self.costs.irq_handler
        self._interrupt_counts["timer"] += 1

    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT exits to L0; wakeup via hardware event injection."""
        self.hw_exit_entry(ctx, _HW_L1_L0)
        self._l0_counts["hlt"] += 1
        ctx.clock.advance(wake_after_ns)
        ctx.clock.now += self.costs.halt_wake_hw
        self.hw_exit_entry(ctx, _HW_L1_L0)
        self._emulation_counts["hlt"] += 1


class KvmEptMachine(KvmMachine):
    """Secure container in a regular VM on bare metal (kvm-ept BM)."""

    name = "kvm-ept (BM)"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: EPT01: guest frame number -> host frame number.
        self.ept01 = PageTable(self.host_phys, name="EPT01")
        self.priced_epts = (self.ept01,)
        self.walked_ept = self.ept01

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        """EPT violation: one hardware round trip to L0's TDP MMU (a
        2 MiB guest run is backed by one huge entry)."""
        self.hw_exit_entry(ctx, _HW_L1_L0)  # VM exit
        self._l0_counts["ept-violation"] += 1
        gfn = violation.gpa >> 12
        levels = self.memory.fill_ept(
            self.ept01, gfn,
            self.huge_block_base(gfn) if self._huge_gfn_bases else None)
        ctx.clock.now += levels * self.costs.ept_fix_per_level
        self.hw_exit_entry(ctx, _HW_L1_L0)  # VM entry
        self._fault_counts[_KEY_SHADOW_PT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id, "fault",
                                          _KEY_SHADOW_PT))

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """EPT hardware: guest page-table writes are ordinary stores."""
        ctx.clock.advance(writes * self.costs.pte_write)
