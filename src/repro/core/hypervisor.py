"""The PVM hypervisor: CPU virtualization by trap-and-emulate + PV ops.

PVM virtualizes vCPUs entirely in software (§3.3.1): L2 guest vCPUs run
only at hardware ring 3, so privileged instructions raise #GP and exit
(via the switcher) to this hypervisor, which either

* serves them through the 22-entry **hypercall fast path**
  (:mod:`repro.core.hypercalls`), or
* runs the full **instruction simulator** for everything else, or
* never sees them at all because the guest kernel's Linux
  paravirtualization hooks (pv_cpu_ops / pv_mmu_ops / pv_irq_ops)
  replaced the sensitive instruction with a hypercall at paravirt-patch
  time — the mechanism that catches x86's non-virtualizable sensitive
  instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.hypercalls import HYPERCALLS, Hypercall, hypercall
from repro.core.interrupts import PvmInterruptController
from repro.core.switcher import GuestWorld, Switcher
from repro.hw.costs import CostModel
from repro.hw.events import EventLog
from repro.sim.clock import Clock


#: Sensitive-but-unprivileged instructions x86 cannot trap (Popek &
#: Goldberg violations) that the PV interfaces must intercept at source.
SENSITIVE_INSTRUCTIONS: Set[str] = {
    "sgdt", "sidt", "sldt", "smsw", "str",
    "popf", "pushf", "lar", "lsl", "verr", "verw",
}

#: The paravirt operation families PVM hooks (paper §3.3.1).
PV_OP_FAMILIES = ("pv_cpu_ops", "pv_mmu_ops", "pv_irq_ops")


@dataclass
class PvOps:
    """Which guest operations are paravirtualized to hypercalls."""

    patched: Dict[str, str] = field(default_factory=dict)

    def patch(self, op: str, hypercall_name: str) -> None:
        """Route a guest operation to a hypercall."""
        if hypercall_name not in HYPERCALLS:
            raise KeyError(f"no such hypercall: {hypercall_name}")
        self.patched[op] = hypercall_name

    def route(self, op: str) -> Optional[str]:
        """The hypercall a guest operation is patched to, or None."""
        return self.patched.get(op)


def default_pv_ops() -> PvOps:
    """The PV-ops patch set a stock PVM guest boots with."""
    ops = PvOps()
    # pv_mmu_ops
    for op, hc in [
        ("write_cr3", "write_cr3"), ("set_pte", "set_pte"),
        ("set_pmd", "set_pmd"), ("set_pud", "set_pud"),
        ("set_pgd", "set_pgd"), ("flush_tlb_user", "flush_tlb"),
        ("flush_tlb_single", "invlpg"), ("release_pt", "release_pt"),
    ]:
        ops.patch(op, hc)
    # pv_cpu_ops
    for op, hc in [
        ("iret", "iret"), ("sysret", "sysret"), ("cpuid", "cpuid"),
        ("read_msr", "read_msr"), ("write_msr", "write_msr"),
        ("load_gs_base", "load_gs_base"), ("load_tls", "load_tls"),
        ("write_gdt_entry", "write_gdt"), ("write_idt_entry", "write_idt"),
    ]:
        ops.patch(op, hc)
    # pv_irq_ops
    for op, hc in [
        ("safe_halt", "halt"), ("irq_enable", "cli_sti_sync"),
        ("irq_disable", "cli_sti_sync"), ("send_ipi", "send_ipi"),
    ]:
        ops.patch(op, hc)
    return ops


class PvmHypervisor:
    """Trap dispatch + emulation engine shared by pvm (BM) and pvm (NST)."""

    def __init__(self, costs: CostModel, events: EventLog) -> None:
        self.costs = costs
        self.events = events
        self.switcher = Switcher(costs, events)
        self.irq = PvmInterruptController()
        self.pv_ops = default_pv_ops()
        from repro.core.emulator import InstructionEmulator

        self.emulator = InstructionEmulator()

    # -- hypercall fast path ------------------------------------------------

    def serve_hypercall(self, clock: Clock, cpu_id: int, name: str,
                        reenter: GuestWorld = GuestWorld.KERNEL) -> Hypercall:
        """Full hypercall round trip: exit via switcher, handle, re-enter.

        ``sysret`` never reaches the hypervisor (switcher-only); calling
        it here is an error — use the switcher's direct switch.
        """
        entry = hypercall(name)
        if entry.switcher_only:
            raise ValueError(f"hypercall {name!r} is served inside the switcher")
        self.switcher.vm_exit(clock, cpu_id, f"hypercall:{name}")
        clock.advance(entry.handler_cost(self.costs))
        self.events.hypercalls[name] += 1
        self.switcher.vm_enter(clock, cpu_id, reenter)
        return entry

    # -- trap and emulate ---------------------------------------------------------

    def emulate_privileged(self, clock: Clock, cpu_id: int, mnemonic: str,
                           reenter: GuestWorld = GuestWorld.KERNEL,
                           vcpu=None):
        """#GP-triggered trap-and-emulate for instructions off the fast
        path: full decode + simulation.

        With a ``vcpu`` supplied, the instruction simulator actually
        decodes the (symbolic) instruction text and applies its effect
        to the vCPU's virtual state; the return value is its
        :class:`~repro.core.emulator.EmulationResult`.
        """
        self.switcher.vm_exit(clock, cpu_id, f"#GP:{mnemonic}")
        clock.advance(self.costs.instr_emulation)
        result = None
        if vcpu is not None:
            result = self.emulator.emulate(vcpu, mnemonic)
            self.events.emulations[result.effect or mnemonic] += 1
        else:
            self.events.emulations[mnemonic] += 1
        self.switcher.vm_enter(clock, cpu_id, reenter)
        return result

    def execute_sensitive(self, clock: Clock, cpu_id: int, mnemonic: str) -> str:
        """How a sensitive instruction is handled: via a PV hook if
        patched, otherwise trap-and-emulate.  Returns the path taken."""
        route = self.pv_ops.route(mnemonic)
        if route is not None:
            self.serve_hypercall(clock, cpu_id, route)
            return f"hypercall:{route}"
        if mnemonic in SENSITIVE_INSTRUCTIONS:
            # Unpatched sensitive instruction: PVM must have rewritten it
            # at paravirt-patch time; reaching here means a guest escaped
            # the PV interface, so emulate defensively.
            self.emulate_privileged(clock, cpu_id, mnemonic)
            return "emulated-sensitive"
        self.emulate_privileged(clock, cpu_id, mnemonic)
        return "emulated"
