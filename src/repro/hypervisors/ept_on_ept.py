"""kvm-ept (NST): hardware-assisted nested virtualization (EPT-on-EPT).

The state-of-the-art baseline of §2.2 / Figure 3(b).  L2 updates its own
GPT2 freely; the expensive path is the extended dimension: L1 maintains
EPT12 (read-only to L1, emulated by L0) and L0 maintains the compressed
EPT02 actually used by hardware.  An L2 EPT violation that writes one
EPT12 entry costs 8 world switches and 4 L0 exits: the point the tests
assert, n = 1 of the paper's ``2n + 6`` / ``n + 3``.  A fault writing n
new GPT entries measures 8n / 4n instead, because each new guest table
page takes its own violation round (ROADMAP.md tracks reconciling the
two).  Nearly all the root-mode work serializes on L0.
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import FaultPhase, TraceEvent
from repro.hw.pagetable import PageTable
from repro.hw.types import EptViolation
from repro.hypervisors.base import CpuCtx, Machine
from repro.hypervisors.chain import install_ept, install_huge_ept
from repro.hypervisors.nested import NestedVmxMixin

_KEY_SHADOW_PT = FaultPhase.SHADOW_PT.value

class EptOnEptMachine(NestedVmxMixin, Machine):
    """Secure container in an L2 guest under EPT-on-EPT (kvm-ept NST)."""

    name = "kvm-ept (NST)"
    nested = True
    #: gfn2 -> gfn1 (L1's memslots for the L2 guest) -> hfn.
    l1_level = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        #: EPT12: gfn2 -> gfn1, maintained by L1, read-only to L1.
        self.ept12 = PageTable(self.l1_phys, name="EPT12")
        #: EPT02: gfn2 -> hfn, the compressed table L0 gives the MMU.
        self.ept02 = PageTable(self.host_phys, name="EPT02")
        self.priced_epts = (self.ept12, self.ept02)
        self.walked_ept = self.ept02

    # -- fault handling ------------------------------------------------------------

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        """The Figure 3(b) dance: fix EPT12 via L1, then EPT02 via L0.

        A guest 2 MiB run gets huge EPT12 and EPT02 entries: the same
        dance, but one entry covers 512 pages."""
        gfn2 = violation.gpa >> 12
        base2 = (self.huge_block_base(gfn2) if self._huge_gfn_bases
                 else None)
        if base2 is None:
            gfn1 = self.memory.gfn1_for(gfn2)
            writes = install_ept(self.ept12, gfn2, gfn1)
        else:
            gfn1 = self.memory.gfn1_block_for(base2)
            install_huge_ept(self.ept12, base2, gfn1)
            writes = 1
        # Phase 1 (steps 1-10): L1 fixes EPT12.
        self._l1_writes_ept12(ctx, writes)
        # Phase 2 (steps 11-13): the access faults again on EPT02; L0
        # compresses EPT12 o EPT01 into EPT02 directly.
        if base2 is None:
            writes02 = install_ept(self.ept02, gfn2,
                                   self.memory.backing_frame(gfn1))
        else:
            install_huge_ept(self.ept02, base2, self.memory.backing_block(gfn1))
            writes02 = 1
        self.l2_l0_roundtrip(
            ctx, writes02 * self.costs.ept_fix_per_level, reason="ept02-fix"
        )
        self._fault_counts[_KEY_SHADOW_PT] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(ctx.clock.now, ctx.cpu_id, "fault",
                                          _KEY_SHADOW_PT))

    def _l1_writes_ept12(self, ctx: CpuCtx, writes: int) -> None:
        """L0 forwards an EPT violation to L1, whose ``writes`` EPT12
        updates each trap back to L0 for emulation; L1 then VMRESUMEs
        L2 (merge + real entry)."""
        self.l2_exit_to_l1(ctx, "ept-violation")
        for _ in range(writes):
            self.l1_l0_service(
                ctx,
                self.costs.wp_emulate_write + self.costs.ept_fix_per_level,
                reason="ept12-write",
            )
        self.l1_resume_l2(ctx)

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """GPT2 is the guest's own: writes are ordinary stores.

        Bulk table construction (fork/exec) allocates fresh guest
        frames *for the tables themselves*; hardware must translate
        those through EPT02, so each new table page costs one nested
        EPT-violation dance — the reason the paper's fork is measurably
        slower nested (113 us vs 82 us) even though no write traps.
        """
        ctx.clock.advance(writes * self.costs.pte_write)
        if structural:
            for _ in range(max(1, writes // 128)):  # new table pages
                self._l1_writes_ept12(ctx, 1)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        super()._privileged(ctx, kind)
        if kind == "pio":
            # Device emulation lives in L1 userspace; each leg of the
            # kernel<->VMM bounce multiplies into nested VMCS traffic.
            for _ in range(self.costs.pio_userspace_trips):
                self.l1_l0_service(
                    ctx, self.costs.vmcs_merge_reload, reason="pio-userspace"
                )
