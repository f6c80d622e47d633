"""Per-fault call budget: the simulator functions one demand fault calls.

Each machine touches ``PAGES`` fresh pages (a write each) after a
warm-up VMA has built its page tables, under ``sys.setprofile`` as
``tests/test_count_in_place.py`` does, and counts the calls into
functions defined in ``src/repro``.  The counts are deterministic, so
they are pinned exactly: a change that adds a call per fault shows up
here, and a change that removes one updates the pin.

The fault path runs the translation attempts, the machine's dance from
#PF (or EPT violation) to the retry, the guest kernel's fix, the shadow
or EPT install and the lock work.  Generated constructors (dataclass
and NamedTuple ``__init__``/``__new__``) are not counted.  Run this
module to print the counts.
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

#: Calls into ``src/repro`` for ``PAGES`` demand faults, by machine.
BUDGET = {
    "kvm-ept (BM)": 1985,  # 31.02 per fault
    "kvm-spt (BM)": 3457,  # 54.02 per fault
    "pvm (BM)": 3521,  # 55.02 per fault
    "kvm-ept (NST)": 2945,  # 46.02 per fault
    "kvm-spt (NST)": 5057,  # 79.02 per fault
    "pvm (NST)": 4097,  # 64.02 per fault
    "pvm-dp (NST)": 2753,  # 43.02 per fault
}


def simulator_calls(scenario: str) -> int:
    """Calls into the simulator while ``PAGES`` fresh pages fault in."""
    m = make_machine(scenario)
    ctx = m.new_context()
    proc = m.spawn_process()
    warm = m.mmap(ctx, proc, PAGES * PAGE_SIZE)
    for vpn in range(warm.start_vpn, warm.end_vpn):
        m.touch(ctx, proc, vpn, write=True)
    vma = m.mmap(ctx, proc, PAGES * PAGE_SIZE)
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC_DIR):
            calls += 1

    sys.setprofile(hook)
    try:
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_per_fault_are_pinned(scenario):
    assert simulator_calls(scenario) == BUDGET[scenario]


if __name__ == "__main__":
    for name in SCENARIOS:
        calls = simulator_calls(name)
        print(f"{name!r}: {calls},  # {calls / PAGES:.2f} per fault")
