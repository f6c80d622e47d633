"""Per-op pins of every world-switch leg, on all seven machines.

The golden file only holds experiment aggregates.  This test runs each
Table-1 privileged op, the virtio doorbell, the five syscalls of
perfbench's ``switch_path``, ``halt(2000)`` and one timer tick on a
warmed guest, and compares each op's virtual-ns delta and EventLog
counter deltas (by key) with ``switch_legs.json``.  A leg that charges
one nanosecond more, or counts a switch under another key, fails here
with the machine and op named.

The PVM rows also run with the direct switch off, the PCID mapping off
and the advanced direct switch on, so the switcher's slow syscall path,
its CR3-load flush hook and its h_ring3 sysret are pinned too; kvm-spt
runs without KPTI for its guest-internal syscall path.

Regenerate (only for a change meant to move virtual time)::

    PYTHONPATH=src python tests/test_switch_legs.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import SCENARIOS, make_machine
from repro.hw.events import EventLog, diff_snapshots
from repro.hw.types import MIB
from repro.hypervisors.base import MachineConfig

PIN_PATH = Path(__file__).resolve().with_name("switch_legs.json")

PRIVILEGED = ("hypercall", "exception", "msr_access", "cpuid", "pio",
              "virtio_doorbell")
SYSCALLS = ("get_pid", "null_io", "stat", "select_tcp", "sig_hndl")
OPS = PRIVILEGED + SYSCALLS + ("halt", "timer")

#: (row label, scenario, config overrides): every scenario at its
#: defaults, then the variants that take the other switch paths.
VARIANTS = tuple((name, name, {}) for name in SCENARIOS) + (
    ("pvm (BM) slow-syscall", "pvm (BM)", {"direct_switch": False}),
    ("pvm (NST) no-pcid", "pvm (NST)", {"pcid_mapping": False}),
    ("pvm (NST) advanced-direct", "pvm (NST)",
     {"advanced_direct_switch": True}),
    ("kvm-spt (BM) no-kpti", "kvm-spt (BM)", {"kpti": False}),
    ("kvm-spt (NST) no-kpti", "kvm-spt (NST)", {"kpti": False}),
)


def _run_op(m, ctx, proc, op):
    """Run one op; returns the user-mode ns it burnt (not a leg cost)."""
    if op in SYSCALLS:
        m.syscall(ctx, proc, op)
    elif op == "halt":
        m.halt(ctx, 2000)
    elif op == "timer":
        # User work up to exactly the next tick: the tick is the only
        # thing charged beyond it.
        user_ns = ctx.last_timer + m.costs.timer_interval - ctx.clock.now
        m.compute(ctx, user_ns)
        return user_ns
    else:
        getattr(m, op)(ctx)
    return 0


def measure(scenario, overrides):
    """``{op: {"ns": delta, "events": counter deltas}}`` on a warm guest."""
    m = make_machine(scenario, config=MachineConfig(**overrides))
    ctx = m.new_context()
    proc = m.spawn_process()
    for op in OPS:  # warm-up: first-use effects stay out of the pins
        _run_op(m, ctx, proc, op)
    out = {}
    for op in OPS:
        before, start = m.events.snapshot(), ctx.clock.now
        user_ns = _run_op(m, ctx, proc, op)
        delta = diff_snapshots(before, m.events.snapshot())
        out[op] = {"ns": ctx.clock.now - start - user_ns,
                   "events": {k: v for k, v in delta.items() if v}}
    return out


def compute_pins():
    return {label: measure(scenario, overrides)
            for label, scenario, overrides in VARIANTS}


@pytest.fixture(scope="module")
def pins():
    with PIN_PATH.open() as fh:
        return json.load(fh)


def test_pins_cover_every_variant(pins):
    assert sorted(pins) == sorted(label for label, _, _ in VARIANTS)


@pytest.mark.parametrize("label,scenario,overrides", VARIANTS,
                         ids=[label for label, _, _ in VARIANTS])
def test_switch_legs_match_pins(pins, label, scenario, overrides):
    got = json.loads(json.dumps(measure(scenario, overrides)))
    for op in OPS:
        assert got[op] == pins[label][op], f"{label}: {op}"


@pytest.mark.parametrize("scenario", ["pvm (NST)", "kvm-ept (NST)"])
def test_detailed_trace_records_every_counted_event(scenario):
    """The inlined recorders keep their ``detailed`` branch: with a
    detailed log, every counted switch, L1 exit and fault is traced,
    stamped with the clock after its leg was charged."""
    m = make_machine(scenario, events=EventLog(detailed=True))
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 1 * MIB)
    for op in OPS:
        _run_op(m, ctx, proc, op)
    m.touch(ctx, proc, vma.start_vpn, write=True)  # guest + EPT faults
    start = ctx.clock.now
    m.hypercall(ctx)
    first_leg = next(ev for ev in m.events.trace if ev.time_ns > start)
    assert first_leg.kind == "switch"
    assert first_leg.time_ns == start + (
        m.costs.pvm_world_switch if scenario.startswith("pvm")
        else m.costs.hw_world_switch)

    ev = m.events
    kinds = [e.kind for e in ev.trace]
    assert ev.page_faults.total > 0 and ev.l1_exits.total + ev.l0_exits.total
    assert kinds.count("switch") == (ev.world_switches.total
                                     + ev.guest_transitions.total)
    assert kinds.count("l1_exit") == ev.l1_exits.total
    assert kinds.count("fault") == ev.page_faults.total
    times = [e.time_ns for e in ev.trace]
    assert times == sorted(times) and times[-1] <= ctx.clock.now


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_switch_legs.py --update")
    rows = [f"{json.dumps(label)}: {{\n" + ",\n".join(
                f"  {json.dumps(op)}: {json.dumps(pin, sort_keys=True)}"
                for op, pin in sorted(ops.items())) + "}"
            for label, ops in sorted(compute_pins().items())]
    PIN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
