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

The legs count their events in place, so every variant is also run
with a detailed EventLog and under ``PVM_SANITIZE=full``: the trace and
the VMX/lockdep hooks must change no pin, and the trace must hold each
counted switch, L1 exit and fault under its key.

Regenerate (only for a change meant to move virtual time)::

    PYTHONPATH=src python tests/test_switch_legs.py --update
"""

from __future__ import annotations

import json
import sys
from collections import Counter
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


def warm_machine(scenario, overrides, events=None):
    """A machine, vCPU and process with every op run once: first-use
    effects stay out of the pins."""
    m = make_machine(scenario, config=MachineConfig(**overrides),
                     events=events)
    ctx = m.new_context()
    proc = m.spawn_process()
    for op in OPS:
        _run_op(m, ctx, proc, op)
    return m, ctx, proc


def pins_of(m, ctx, proc):
    """``{op: {"ns": delta, "events": counter deltas}}`` of each op."""
    out = {}
    for op in OPS:
        before, start = m.events.snapshot(), ctx.clock.now
        user_ns = _run_op(m, ctx, proc, op)
        delta = diff_snapshots(before, m.events.snapshot())
        out[op] = {"ns": ctx.clock.now - start - user_ns,
                   "events": {k: v for k, v in delta.items() if v}}
    return json.loads(json.dumps(out))


def measure(scenario, overrides):
    """The pins of every op on a warm guest."""
    return pins_of(*warm_machine(scenario, overrides))


def assert_pins(got, pins, label):
    for op in OPS:
        assert got[op] == pins[label][op], f"{label}: {op}"


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
    assert_pins(measure(scenario, overrides), pins, label)


@pytest.mark.parametrize("label,scenario,overrides", VARIANTS,
                         ids=[label for label, _, _ in VARIANTS])
def test_detailed_log_keeps_pins(pins, label, scenario, overrides):
    m, ctx, proc = warm_machine(scenario, overrides,
                                events=EventLog(detailed=True))
    assert_pins(pins_of(m, ctx, proc), pins, label)
    assert m.events.trace


@pytest.mark.parametrize("label,scenario,overrides", VARIANTS,
                         ids=[label for label, _, _ in VARIANTS])
def test_full_sanitizers_keep_pins(pins, monkeypatch, label, scenario,
                                   overrides):
    monkeypatch.setenv("PVM_SANITIZE", "full")
    m, ctx, proc = warm_machine(scenario, overrides)
    assert_pins(pins_of(m, ctx, proc), pins, label)
    # The hooks ran on the legs: every L0-lock acquisition was reported
    # to lockdep, and the nested legs drove the VMX state machine.
    checks = m.sanitizers.report.checks
    assert m.l0_lock.lockdep is not None
    assert checks.get("lockdep", 0) >= m.l0_lock.acquisitions
    if m.vmcs02() is not None:
        assert checks.get("vmx", 0) > 0, checks
    assert not m.sanitizers.violations


def _op_mix(m):
    """Every op, then a first touch (guest and extended faults) and one
    hypercall; returns the vCPU and the clock the hypercall started at."""
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 1 * MIB)
    for op in OPS:
        _run_op(m, ctx, proc, op)
    m.touch(ctx, proc, vma.start_vpn, write=True)
    start = ctx.clock.now
    m.hypercall(ctx)
    return ctx, start


@pytest.mark.parametrize("label,scenario,overrides", VARIANTS,
                         ids=[label for label, _, _ in VARIANTS])
def test_detailed_trace_records_every_counted_event(label, scenario,
                                                    overrides):
    """With a detailed log, every switch, L1 exit and fault a leg
    counts is traced under the same key, stamped with the clock after
    its leg was charged, in order."""
    config = MachineConfig(**overrides)
    m = make_machine(scenario, config=config, events=EventLog(detailed=True))
    ctx, start = _op_mix(m)
    first_leg = next(ev for ev in m.events.trace if ev.time_ns > start)
    assert first_leg.kind == "switch"
    assert first_leg.time_ns == start + (
        m.costs.pvm_world_switch if scenario.startswith("pvm")
        else m.costs.hw_world_switch)

    ev = m.events
    assert ev.page_faults.total > 0 and ev.l1_exits.total + ev.l0_exits.total
    traced = Counter((e.kind, e.detail) for e in ev.trace)
    counted = Counter()
    for kind, counter in (("switch", ev.world_switches),
                          ("switch", ev.guest_transitions),
                          ("l1_exit", ev.l1_exits),
                          ("fault", ev.page_faults)):
        counted.update({(kind, key): n for key, n in counter.by_key.items()})
    assert traced == counted
    times = [e.time_ns for e in ev.trace]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert times[-1] <= ctx.clock.now

    plain = make_machine(scenario, config=config)
    _op_mix(plain)
    assert plain.events.trace == []
    assert plain.events.snapshot() == ev.snapshot()


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_switch_legs.py --update")
    rows = [f"{json.dumps(label)}: {{\n" + ",\n".join(
                f"  {json.dumps(op)}: {json.dumps(pin, sort_keys=True)}"
                for op, pin in sorted(ops.items())) + "}"
            for label, ops in sorted(compute_pins().items())]
    PIN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
