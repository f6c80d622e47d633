"""Opt-in runtime-invariant sanitizers (``repro.sanitize``).

Three checkers over a shared violation-reporting core:

* :class:`ShadowCoherenceSanitizer` — TLB/shadow entries vs fresh
  uncached 2-D walks of guest GPT × EPT, plus flush postconditions.
* :class:`LockdepSanitizer` — acquisition ordering over SimLock /
  LockSet / SptLockManager (legal order meta → pt → rmap), ABBA cycle
  detection, and locks held across ``Engine.park``.
* :class:`VmxStateSanitizer` — VMCS01/VMCS12/VMCS02 transition
  legality in the nested stacks.

Enable per machine with ``MachineConfig(sanitize=True)`` (mode via
``sanitize_mode="sampled" | "full"``), per run with
``pvm-bench ... --sanitize[=full]``, or globally with
``PVM_SANITIZE=1`` / ``PVM_SANITIZE=full`` in the environment.

When off (the default) no checker objects exist and every hook is a
``None``-checked attribute read off the hot paths — zero overhead and
bit-identical simulation output.  When on, checks run outside virtual
time: clocks, counters, and experiment outputs are unchanged except
for the ``sanitizer_violations`` event counter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sanitize.core import (
    SanitizeReport,
    SanitizerError,
    Violation,
    events_tail,
)
from repro.sanitize.lockdep import LockdepSanitizer
from repro.sanitize.shadow_coherence import ShadowCoherenceSanitizer
from repro.sanitize.vmxstate import VmxStateSanitizer

__all__ = [
    "SanitizerSuite",
    "SanitizeReport",
    "SanitizerError",
    "Violation",
    "LockdepSanitizer",
    "ShadowCoherenceSanitizer",
    "VmxStateSanitizer",
    "attach_sanitizers",
    "resolve_mode",
    "events_tail",
]

#: ``PVM_SANITIZE`` values that mean "on, sampled".
_ENV_ON = {"1", "true", "on", "sampled"}


@dataclass
class SanitizerSuite:
    """All sanitizers attached to one machine, plus their shared report."""

    report: SanitizeReport
    shadow: ShadowCoherenceSanitizer
    lockdep: LockdepSanitizer
    vmx: Optional[VmxStateSanitizer] = None
    violations: List[Violation] = field(init=False)

    def __post_init__(self) -> None:
        self.violations = self.report.violations

    def snapshot(self) -> dict:
        return self.report.snapshot()


def resolve_mode(config) -> Optional[str]:
    """Effective sanitize mode for a machine config, or None for off.

    ``MachineConfig(sanitize=True)`` wins; otherwise the
    ``PVM_SANITIZE`` environment variable enables sanitizers globally
    (any of ``1/true/on/sampled`` for sampled mode, ``full`` for
    exhaustive mode).
    """
    if getattr(config, "sanitize", False):
        return getattr(config, "sanitize_mode", "sampled") or "sampled"
    env = os.environ.get("PVM_SANITIZE", "").strip().lower()
    if env in _ENV_ON:
        return "sampled"
    if env == "full":
        return "full"
    return None


def attach_sanitizers(machine, mode: str = "sampled") -> SanitizerSuite:
    """Build and wire the sanitizer suite onto ``machine``.

    Idempotent per machine (re-attaching replaces the suite).  Wires:

    * the shadow-coherence checker onto every context Mmu (done by
      ``Machine.new_context`` for contexts created afterwards),
    * lockdep onto the machine's SptLockManager (when present) and the
      coarse singleton locks (l0 service, guest fork, L1 mmu_lock),
    * the VMX state checker onto ``vmcs_shadow`` for nested stacks.
    """
    report = SanitizeReport(events=machine.events, mode=mode)
    shadow = ShadowCoherenceSanitizer(machine, report)
    lockdep = LockdepSanitizer(report)
    suite = SanitizerSuite(report=report, shadow=shadow, lockdep=lockdep)

    if machine.locks is not None:
        machine.locks.install_lockdep(lockdep)
    for lock, cls in machine.lockdep_classes():
        lock.lockdep = lockdep
        lock.lock_class = cls

    vmcs_shadow = machine.vmcs02()
    if vmcs_shadow is not None:
        vmx = VmxStateSanitizer(report, vmcs_shadow)
        vmcs_shadow.sanitizer = vmx
        machine.vmx_sanitizer = vmx
        suite.vmx = vmx

    # Contexts created before attach (none in practice: attach runs on
    # the first new_context) still get the Mmu hook here.
    for ctx in machine.contexts:
        ctx.mmu.sanitizer = shadow

    machine.sanitizers = suite
    return suite
