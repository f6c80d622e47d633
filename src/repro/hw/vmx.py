"""VMX protocol model: VMCS, exit reasons, and VMCS shadowing.

Nested virtualization's cost structure comes from this protocol: L1's
VMREAD/VMWRITE/VMRESUME are privileged, so every one of them would trap
to L0 (40-50 exits per L2 world switch, per Wasserman's measurement
cited in §2.1) unless VMCS *shadowing* lets L0 keep a merged
``VMCS02 = merge(VMCS01, VMCS12)``.  We model both regimes so the
benefit of shadowing — and the residual merge/reload cost PVM avoids
entirely — is measurable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.hw.types import HardwareError


class ExitReason(enum.Enum):
    """VM-exit reasons used by the evaluation's micro-benchmarks."""

    HYPERCALL = "hypercall"  # VMCALL
    EXCEPTION = "exception"  # e.g. invalid opcode, #GP, #PF
    PAGE_FAULT = "page_fault"
    EPT_VIOLATION = "ept_violation"
    MSR_READ = "msr_read"
    MSR_WRITE = "msr_write"
    CPUID = "cpuid"
    PIO = "pio"
    HLT = "hlt"
    EXTERNAL_INTERRUPT = "external_interrupt"
    CR_ACCESS = "cr_access"
    INVLPG = "invlpg"
    VMRESUME = "vmresume"  # L1 trying to enter L2
    VMREAD = "vmread"
    VMWRITE = "vmwrite"


@dataclass(frozen=True)
class PendingEvent:
    """An event queued for injection at the next VM entry.

    Immutable, so one event object may sit in several queues (the nested
    legs queue one prebuilt event per forwarded reason)."""

    kind: ExitReason
    vector: int = 0
    error_code: int = 0
    payload: object = None


@dataclass
class Vmcs:
    """A VM control structure for one vCPU at one nesting edge.

    Only the fields the evaluation's control flow depends on are
    modeled; the point is the *protocol* (who may read/write which VMCS
    from which mode), not the full 4 KiB layout.
    """

    name: str  # "VMCS01", "VMCS12", "VMCS02"
    guest_cr3_frame: Optional[int] = None
    guest_pcid: int = 0
    eptp_frame: Optional[int] = None
    vpid: int = 0
    pending: List[PendingEvent] = field(default_factory=list)
    #: Exit information written by the CPU on VM exit.
    last_exit: Optional[ExitReason] = None
    #: Generation counter bumped on every write; used to detect when the
    #: shadow VMCS02 is stale and must be re-merged.
    generation: int = 0

    def write(self) -> None:
        """Record a VMWRITE-visible mutation."""
        self.generation += 1

    def queue_injection(self, event: PendingEvent) -> None:
        """Queue an event for injection at the next VM entry (a
        VMWRITE-visible mutation: the generation is bumped in place)."""
        self.pending.append(event)
        self.generation += 1

    def take_injections(self) -> List[PendingEvent]:
        """Drain and return the pending injections."""
        events, self.pending = self.pending, []
        return events


@dataclass
class VmcsShadow:
    """L0's merged VMCS02 plus staleness tracking.

    ``merge`` recomputes guest state from VMCS12 (the L2 guest context L1
    maintains) and host/control state from VMCS01.  It is the expensive
    step the paper's Table 1 nested numbers are dominated by; callers
    charge :attr:`CostModel.vmcs_merge_reload` when they invoke it.
    """

    vmcs01: Vmcs
    vmcs12: Vmcs
    vmcs02: Vmcs = field(init=False)
    _merged_gen01: int = field(init=False, default=-1)
    _merged_gen12: int = field(init=False, default=-1)
    #: Optional VmxStateSanitizer notified on every merge (attached
    #: after construction, so the ``__post_init__`` bootstrap merge is
    #: never checked — there is no legality question before L2 exists).
    sanitizer: Optional[object] = None

    def __post_init__(self) -> None:
        self.vmcs02 = Vmcs(name="VMCS02")
        self.merge()

    @property
    def stale(self) -> bool:
        """True when the shadow copy lags the source VMCS generations."""
        return (
            self._merged_gen01 != self.vmcs01.generation
            or self._merged_gen12 != self.vmcs12.generation
        )

    def merge(self) -> Vmcs:
        """Recompute VMCS02 from VMCS01 + VMCS12 (L0 root-mode work)."""
        if self.sanitizer is not None:
            self.sanitizer.on_merge()
        vmcs01, vmcs12, vmcs02 = self.vmcs01, self.vmcs12, self.vmcs02
        vmcs02.guest_cr3_frame = vmcs12.guest_cr3_frame
        vmcs02.guest_pcid = vmcs12.guest_pcid
        # The EPTP in VMCS02 is L0's choice: under SPT-on-EPT it is EPT01
        # (L1's own EPT); under EPT-on-EPT it is the compressed EPT02.
        # Callers overwrite eptp_frame after merge as appropriate.
        vmcs02.eptp_frame = vmcs01.eptp_frame
        vmcs02.vpid = vmcs12.vpid
        if vmcs12.pending:
            vmcs02.pending.extend(vmcs12.take_injections())
        self._merged_gen01 = vmcs01.generation
        self._merged_gen12 = vmcs12.generation
        return vmcs02


class VmxCapabilities:
    """What the (virtual) hardware offers a hypervisor at some level."""

    def __init__(
        self,
        vmx: bool = True,
        ept: bool = True,
        vmcs_shadowing: bool = True,
        vpid: bool = True,
    ) -> None:
        self.vmx = vmx
        self.ept = ept
        self.vmcs_shadowing = vmcs_shadowing
        self.vpid = vpid

    @classmethod
    def bare_metal(cls) -> "VmxCapabilities":
        """Full Intel VT-x as on the paper's bare-metal instance."""
        return cls(vmx=True, ept=True, vmcs_shadowing=True, vpid=True)

    @classmethod
    def none(cls) -> "VmxCapabilities":
        """A general-purpose cloud VM instance: no virtualization
        extensions exposed at all (the environment PVM targets)."""
        return cls(vmx=False, ept=False, vmcs_shadowing=False, vpid=False)

    @classmethod
    def emulated_nested(cls) -> "VmxCapabilities":
        """VMX emulated by an L0 that enables nested virtualization."""
        return cls(vmx=True, ept=True, vmcs_shadowing=True, vpid=True)

    def require_vmx(self, who: str) -> None:
        """Raise HardwareError when VMX is absent."""
        if not self.vmx:
            raise HardwareError(
                f"{who} requires VMX, but the instance exposes no hardware "
                f"virtualization support (use PVM instead)"
            )
