"""Call budgets: the simulator functions a demand fault, a munmap and a
TLB hit call.

Each machine touches ``PAGES`` fresh pages (a write each) of a VMA after
a warm-up VMA has built its page tables, under ``sys.setprofile`` as
``tests/test_count_in_place.py`` does, and counts the calls into
functions defined in ``src/repro``.  Three operations are measured on
that VMA, each on its own machine:

* ``BUDGET``: the ``PAGES`` demand faults;
* ``MUNMAP_BUDGET``: the ``munmap`` of the faulted VMA (its page-table,
  shadow and TLB teardown, per page);
* ``HIT_BUDGET``: a second write sweep over the faulted VMA, every touch
  a TLB hit.  This is the per-touch floor a run API for the workloads'
  page loops has to beat.

The counts are deterministic, so they are pinned exactly: a change that
adds a call shows up here, and a change that removes one updates the
pin.  Generated constructors (dataclass and NamedTuple
``__init__``/``__new__``) are not counted.  Run this module to print
all three tables, ready to paste, and then the opcodes per demand fault
of each machine (:func:`opcodes_per_fault`: ``OPCODE_PAGES`` fresh
write faults after the warm-up VMA, every bytecode the simulator and
its generated constructors execute, under ``sys.settrace``).
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro import SCENARIOS, make_machine
from repro.hw.types import PAGE_SIZE

SRC_DIR = os.path.dirname(repro.__file__)
PAGES = 64
#: Demand faults per machine in :func:`opcodes_per_fault`.
OPCODE_PAGES = 512

#: Calls into ``src/repro`` for ``PAGES`` demand faults, by machine.
BUDGET = {
    "kvm-ept (BM)": 1345,  # 21.02 per fault
    "kvm-spt (BM)": 1985,  # 31.02 per fault
    "pvm (BM)": 2433,  # 38.02 per fault
    "kvm-ept (NST)": 2049,  # 32.02 per fault
    "kvm-spt (NST)": 3009,  # 47.02 per fault
    "pvm (NST)": 2753,  # 43.02 per fault
    "pvm-dp (NST)": 2049,  # 32.02 per fault
}

#: Calls for the ``munmap`` of the ``PAGES``-page faulted VMA.
MUNMAP_BUDGET = {
    "kvm-ept (BM)": 207,  # 3.23 per page
    "kvm-spt (BM)": 655,  # 10.23 per page
    "pvm (BM)": 984,  # 15.38 per page
    "kvm-ept (NST)": 207,  # 3.23 per page
    "kvm-spt (NST)": 979,  # 15.30 per page
    "pvm (NST)": 984,  # 15.38 per page
    "pvm-dp (NST)": 405,  # 6.33 per page
}

#: Calls for ``PAGES`` touches that all hit the TLB.
HIT_BUDGET = {
    "kvm-ept (BM)": 129,  # 2.02 per hit
    "kvm-spt (BM)": 129,  # 2.02 per hit
    "pvm (BM)": 193,  # 3.02 per hit
    "kvm-ept (NST)": 129,  # 2.02 per hit
    "kvm-spt (NST)": 129,  # 2.02 per hit
    "pvm (NST)": 193,  # 3.02 per hit
    "pvm-dp (NST)": 193,  # 3.02 per hit
}


def _counted(run) -> int:
    """Calls into the simulator while ``run()`` executes."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC_DIR):
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _opcodes(run) -> int:
    """Bytecodes executed in the simulator and in generated constructors
    (whose code has a ``<string>`` file name) while ``run()`` executes."""
    opcodes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(SRC_DIR) or name.startswith("<"):
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(None)
    return opcodes


def _fresh_vma(scenario: str, pages: int = PAGES):
    """A machine whose guest tables are built, and a fresh VMA on it."""
    m = make_machine(scenario)
    ctx = m.new_context()
    proc = m.spawn_process()
    warm = m.mmap(ctx, proc, PAGES * PAGE_SIZE)
    for vpn in range(warm.start_vpn, warm.end_vpn):
        m.touch(ctx, proc, vpn, write=True)
    return m, ctx, proc, m.mmap(ctx, proc, pages * PAGE_SIZE)


def _sweep(m, ctx, proc, vma) -> None:
    for vpn in range(vma.start_vpn, vma.end_vpn):
        m.touch(ctx, proc, vpn, write=True)


def simulator_calls(scenario: str) -> int:
    """Calls into the simulator while ``PAGES`` fresh pages fault in."""
    m, ctx, proc, vma = _fresh_vma(scenario)
    return _counted(lambda: _sweep(m, ctx, proc, vma))


def opcodes_per_fault(scenario: str) -> float:
    """Opcodes per demand fault over ``OPCODE_PAGES`` fresh pages."""
    m, ctx, proc, vma = _fresh_vma(scenario, OPCODE_PAGES)
    return _opcodes(lambda: _sweep(m, ctx, proc, vma)) / OPCODE_PAGES


def munmap_calls(scenario: str) -> int:
    """Calls into the simulator while the faulted VMA is unmapped."""
    m, ctx, proc, vma = _fresh_vma(scenario)
    _sweep(m, ctx, proc, vma)
    return _counted(lambda: m.munmap(ctx, proc, vma))


def hit_calls(scenario: str) -> int:
    """Calls into the simulator for ``PAGES`` TLB-hit touches."""
    m, ctx, proc, vma = _fresh_vma(scenario)
    _sweep(m, ctx, proc, vma)
    hits = ctx.tlb.stats.hits
    calls = _counted(lambda: _sweep(m, ctx, proc, vma))
    assert ctx.tlb.stats.hits == hits + PAGES
    return calls


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_per_fault_are_pinned(scenario):
    assert simulator_calls(scenario) == BUDGET[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_per_munmap_are_pinned(scenario):
    assert munmap_calls(scenario) == MUNMAP_BUDGET[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_per_tlb_hit_are_pinned(scenario):
    assert hit_calls(scenario) == HIT_BUDGET[scenario]


if __name__ == "__main__":
    for title, count, unit in (("BUDGET", simulator_calls, "fault"),
                               ("MUNMAP_BUDGET", munmap_calls, "page"),
                               ("HIT_BUDGET", hit_calls, "hit")):
        print(f"{title} = {{")
        for name in SCENARIOS:
            calls = count(name)
            print(f'    "{name}": {calls},  # {calls / PAGES:.2f} per {unit}')
        print("}")
    total = 0.0
    print(f"opcodes per demand fault ({OPCODE_PAGES} faults):")
    for name in SCENARIOS:
        per_fault = opcodes_per_fault(name)
        total += per_fault
        print(f"    {name:16s} {per_fault:8.1f}")
    print(f"    {'sum':16s} {total:8.1f}")
