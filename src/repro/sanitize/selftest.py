"""Sanitizer self-test: seeded bug drills + a sanitized chaos smoke.

``pvm-bench selftest`` runs this as a fast gate: each checker must
catch a deliberately planted bug of its own class (proving the
sanitizers *detect*), and one sanitized chaos recovery scenario must
complete with checks executed and zero violations (proving they don't
false-positive on correct code).

The drills plant bugs from the outside — monkey-patched hardware
methods and direct hook calls — so no test-only back door lives in the
product code itself:

=====================  ====================================================
skip-flush             ``Tlb.flush_pcid`` replaced with a no-op; the next
                       PCID flush leaves stale entries behind
huge-count             a TLB's 2 MiB entry count zeroed while a 2 MiB
                       entry is cached; the next ``full`` audit recounts
lock-order inversion   an operation acquires ``rmap`` before ``pt``
VMX double entry       VM entry while L2 is already in non-root execution
VMX exit w/o entry     two consecutive VM exits
VMX stale entry        VM entry after a VMCS12 write with no re-merge
=====================  ====================================================
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple
from unittest import mock

from repro.sanitize.core import SanitizerError


def _expect(kind: str, drill: Callable[[], None]) -> Optional[str]:
    """Run one drill; returns None on success, else a failure message."""
    try:
        drill()
    except SanitizerError as err:
        if err.violation.kind == kind:
            return None
        return f"caught {err.violation.kind!r}, expected {kind!r}"
    return f"planted bug went undetected (expected {kind!r})"


def _sanitized_machine(scenario: str, mode: str):
    from repro import make_machine
    from repro.hypervisors.base import MachineConfig

    machine = make_machine(
        scenario, config=MachineConfig(sanitize=True, sanitize_mode=mode)
    )
    ctx = machine.new_context()  # triggers the sanitizer attach
    return machine, ctx


def _drill_skip_flush(mode: str) -> None:
    """A skipped TLB flush must trip the shadow-coherence checker."""
    from repro.hw.tlb import Tlb

    machine, ctx = _sanitized_machine("pvm (BM)", mode)
    proc = machine.spawn_process()
    vma = machine.mmap(ctx, proc, 8 * 4096)
    for i in range(8):
        machine.touch(ctx, proc, vma.start_vpn + i, write=True)
    asid = machine.asid_for(proc, kernel_half=False)
    assert ctx.tlb.peek_packed(asid.key, vma.start_vpn) is not None
    original = Tlb.flush_pcid
    Tlb.flush_pcid = lambda self, asid: 0  # the planted bug
    try:
        ctx.mmu.flush_pcid(ctx.clock, asid)
    finally:
        Tlb.flush_pcid = original


def _drill_huge_count(mode: str) -> None:
    """A zeroed 2 MiB entry count must trip the ``full`` TLB audit.

    The count is only audited in ``full`` mode, so the drill always
    runs full; ``mode`` is accepted for a uniform drill signature.
    """
    from repro import make_machine
    from repro.hypervisors.base import MachineConfig

    machine = make_machine("kvm-ept (BM)", config=MachineConfig(
        thp=True, sanitize=True, sanitize_mode="full"))
    ctx = machine.new_context()
    proc = machine.spawn_process()
    vma = machine.mmap(ctx, proc, 6 << 20)
    base = -(-vma.start_vpn // 512) * 512  # two whole 2 MiB runs follow
    machine.touch(ctx, proc, base, write=True)
    assert ctx.tlb.huge_entries == 1
    ctx.tlb.huge_entries = 0  # the planted bug
    machine.touch(ctx, proc, base + 512, write=True)  # faults: full audit


def _drill_lock_inversion(mode: str) -> None:
    """rmap taken before pt inside one operation must trip lockdep."""
    machine, ctx = _sanitized_machine("pvm (BM)", mode)
    lockdep = machine.sanitizers.lockdep
    lockdep.begin_op(("drill", "inversion"))
    try:
        machine.locks.rmap_locks.get(7).run_locked(ctx.clock, 10)
        machine.locks.pt_locks.get(7).run_locked(ctx.clock, 10)
    finally:
        lockdep.end_op()


def _vmx_sanitizer(mode: str):
    machine, ctx = _sanitized_machine("kvm-ept (NST)", mode)
    return machine.vmx_sanitizer


def _drill_vmx_double_entry(mode: str) -> None:
    san = _vmx_sanitizer(mode)
    san.vm_entry("drill")  # guest starts in L2: entry on entry


def _drill_vmx_exit_without_entry(mode: str) -> None:
    san = _vmx_sanitizer(mode)
    san.vm_exit("drill")  # legal: L2 -> L0
    san.vm_exit("drill")  # planted: exit with L2 already out


def _drill_vmx_stale_entry(mode: str) -> None:
    san = _vmx_sanitizer(mode)
    san.vm_exit("drill")            # legal: L2 -> L0
    san.vmcs_shadow.vmcs12.write()  # VMCS12 mutated; no re-merge follows
    san.vm_entry("drill")           # planted: entry on a stale VMCS02


def run_selftest(mode: str = "sampled") -> int:
    """Run every drill plus a sanitized chaos smoke; 0 on success."""
    drills: Tuple[Tuple[str, str, Callable[[], None]], ...] = (
        ("skip-flush", "stale-after-pcid-flush",
         lambda: _drill_skip_flush(mode)),
        ("huge-count", "tlb-huge-count-mismatch",
         lambda: _drill_huge_count(mode)),
        ("lock-order-inversion", "lock-order-inversion",
         lambda: _drill_lock_inversion(mode)),
        ("vmx-double-entry", "vmcs02-double-entry",
         lambda: _drill_vmx_double_entry(mode)),
        ("vmx-exit-without-entry", "vmcs02-exit-without-entry",
         lambda: _drill_vmx_exit_without_entry(mode)),
        ("vmx-stale-entry", "vmcs02-stale-entry",
         lambda: _drill_vmx_stale_entry(mode)),
    )
    failures: List[str] = []
    for name, kind, drill in drills:
        problem = _expect(kind, drill)
        status = "caught" if problem is None else f"FAILED: {problem}"
        print(f"drill {name:24s} {status}")
        if problem is not None:
            failures.append(name)

    # Clean-run smoke: one chaos recovery scenario, sanitized in
    # ``mode``, must complete with checks executed and zero violations.
    from repro.bench.experiments import chaos

    try:
        with mock.patch.dict(os.environ, {"PVM_SANITIZE": mode}):
            row = chaos.row("pvm (NST)", 0.2, **chaos.params)
    except SanitizerError as err:
        print(f"chaos smoke               FAILED: {err}")
        failures.append("chaos-smoke")
    else:
        checks, violations = row.sanitize
        if checks > 0 and violations == 0:
            print(f"chaos smoke               clean ({checks} checks)")
        else:
            print(f"chaos smoke               FAILED: {checks} checks, "
                  f"{violations} violations")
            failures.append("chaos-smoke")

    if failures:
        print(f"selftest: {len(failures)} failure(s): {', '.join(failures)}")
        return 1
    print("selftest: all sanitizers detect their drills; clean run clean")
    return 0
