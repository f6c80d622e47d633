"""Per-op pins of the demand-fault path, on all seven machines.

The golden file only holds experiment aggregates, and
``switch_legs.json`` pins the world-switch legs with no fault in them.
This test runs the fault-path ops on a warmed process and compares each
op's virtual-ns delta and EventLog counter deltas (by key) with
``fault_path.json``:

* ``cold_touch`` — first write to a fresh 1 GiB region (the fault
  writes n = 3 guest entries);
* ``steady_touch`` — a write next to it (n = 1);
* ``file_touch`` — a read fault on a file-backed VMA;
* ``shadow_stale`` — a write to a page whose shadow entry was zapped
  (a plain TLB-miss walk on machines without shadow tables);
* ``segfault`` — a touch outside every VMA;
* ``mprotect`` and ``munmap`` of a fully touched 64-page VMA;
* ``cow_write`` — a write to a copy-on-write page after ``fork``;
* ``remap_touch`` — writes to the first two pages of a VMA re-created
  over the range ``munmap`` freed, so the leaf tables that ``munmap``
  pruned are allocated again (the one case a stale leaf-table index
  entry would get wrong).

Every machine runs at its defaults and with the paging-structure caches
on; machines that can back 2 MiB guest mappings also run with THP, and
the PVM shadow machines run with each of their fault-path toggles.  The
fault dances count and trace in place, so every row also runs with a
detailed EventLog: the pins must hold, and the trace must hold each
counted switch, L1 exit and fault under its key.  The rows run a
further time under ``sanitize_mode="full"`` and must give the same
pins: the sanitizers charge nothing and count nothing.  The THP
rows of the PVM machines (``SANITIZER_KNOWN_FAILURES``) stay out of that
check because the sanitizers flag them at the commit that recorded the
pins too.

Regenerate (only for a change meant to move virtual time)::

    PYTHONPATH=src python tests/test_fault_path.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import SCENARIOS, make_machine
from repro.guest.addrspace import SegfaultError, Vma
from repro.hw.events import EventLog, diff_snapshots
from repro.hypervisors.base import MachineConfig

PIN_PATH = Path(__file__).resolve().with_name("fault_path.json")

OPS = ("cold_touch", "steady_touch", "file_touch", "shadow_stale",
       "segfault", "mprotect", "munmap", "cow_write", "remap_touch")

#: Warm-up VMA (its first touch builds the upper guest levels).
WARM_VPN = 0x1000
#: A 64-page VMA the ``mprotect``/``munmap`` ops work on.
SMALL_VPN, SMALL_PAGES = 0x2000, 64
#: A file-backed VMA for the file-fault body.
FILE_VPN = 0x3000
#: A 4 MiB VMA at the start of a fresh 1 GiB region (2 MiB-aligned, so
#: THP can back it).
COLD_VPN, COLD_PAGES = 1 << 18, 1024
#: A vpn no VMA covers.
HOLE_VPN = 0x7

THP_SCENARIOS = tuple(name for name in SCENARIOS
                      if make_machine(name).supports_thp)
PVM_SHADOW = ("pvm (BM)", "pvm (NST)")

#: (row label, scenario, config overrides).
VARIANTS = (
    tuple((name, name, {}) for name in SCENARIOS)
    + tuple((f"{name} psc", name, {"psc": True}) for name in SCENARIOS)
    + tuple((f"{name} thp", name, {"thp": True}) for name in THP_SCENARIOS)
    + tuple((f"{name} {label}", name, {flag: value})
            for name in PVM_SHADOW
            for label, flag, value in (
                ("no-prefault", "prefault", False),
                ("fault-triage", "switcher_fault_triage", True),
                ("wp-less", "wp_less_sync", True)))
)
#: THP rows the sanitizers flag at the commit that recorded the pins
#: too (ROADMAP item 7): a sync after ``fork`` splits a huge guest
#: mapping finds a huge shadow entry over a 4K guest entry (pvm BM/NST),
#: and the warm EPT01 backs the first huge fault with 4K entries (pvm-dp).
SANITIZER_KNOWN_FAILURES = ("pvm (BM) thp", "pvm (NST) thp", "pvm-dp (NST) thp")
SANITIZED = tuple(v for v in VARIANTS
                  if v[0] not in SANITIZER_KNOWN_FAILURES)


def _run_op(m, ctx, proc, op, vmas):
    if op == "cold_touch":
        m.touch(ctx, proc, COLD_VPN, write=True)
    elif op == "steady_touch":
        m.touch(ctx, proc, COLD_VPN + 1, write=True)
    elif op == "file_touch":
        m.touch(ctx, proc, FILE_VPN + 3)
    elif op == "shadow_stale":
        m.touch(ctx, proc, COLD_VPN, write=True)
    elif op == "segfault":
        with pytest.raises(SegfaultError):
            m.touch(ctx, proc, HOLE_VPN)
    elif op == "mprotect":
        m.mprotect(ctx, proc, vmas["small"], writable=False)
    elif op == "munmap":
        m.munmap(ctx, proc, vmas["small"])
    elif op == "cow_write":
        m.touch(ctx, proc, COLD_VPN, write=True)
    elif op == "remap_touch":
        m.touch(ctx, proc, SMALL_VPN, write=True)
        m.touch(ctx, proc, SMALL_VPN + 1, write=True)


def _prepare_op(m, ctx, proc, op):
    """Unmeasured set-up some ops need right before them."""
    if op == "shadow_stale":
        if m.shadow is not None:
            m.shadow.unmap(proc, COLD_VPN)
        m.invalidate_asid(ctx, proc)
    elif op == "cow_write":
        m.fork(ctx, proc)
    elif op == "remap_touch":
        proc.addr_space.insert(Vma(SMALL_VPN, SMALL_PAGES))


def measure(scenario, overrides, events=None):
    """``{op: {"ns": delta, "events": counter deltas}}`` on a warm process."""
    m = make_machine(scenario, config=MachineConfig(**overrides),
                     events=events)
    ctx = m.new_context()
    vmas = {"warm": Vma(WARM_VPN, 8), "small": Vma(SMALL_VPN, SMALL_PAGES),
            "file": Vma(FILE_VPN, 8, writable=False, kind="file",
                        file_key="lib.so"),
            "cold": Vma(COLD_VPN, COLD_PAGES)}
    proc = m.spawn_process(list(vmas.values()))
    for vpn in range(WARM_VPN, WARM_VPN + 8):
        m.touch(ctx, proc, vpn, write=True)
    for vpn in range(SMALL_VPN, SMALL_VPN + SMALL_PAGES):
        m.touch(ctx, proc, vpn, write=True)
    out = {}
    for op in OPS:
        _prepare_op(m, ctx, proc, op)
        before, start = m.events.snapshot(), ctx.clock.now
        _run_op(m, ctx, proc, op, vmas)
        delta = diff_snapshots(before, m.events.snapshot())
        out[op] = {"ns": ctx.clock.now - start,
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
def test_fault_path_matches_pins(pins, label, scenario, overrides):
    got = json.loads(json.dumps(measure(scenario, overrides)))
    for op in OPS:
        assert got[op] == pins[label][op], f"{label}: {op}"


@pytest.mark.parametrize("label,scenario,overrides", VARIANTS,
                         ids=[label for label, _, _ in VARIANTS])
def test_detailed_log_keeps_pins_and_traces_every_count(pins, label,
                                                        scenario, overrides):
    """The fault dances count and trace in place: with a detailed log
    the pins hold, and the trace holds each counted switch, L1 exit and
    fault under its key."""
    from tests.test_switch_legs import assert_trace_matches_counters

    events = EventLog(detailed=True)
    got = json.loads(json.dumps(measure(scenario, overrides, events)))
    for op in OPS:
        assert got[op] == pins[label][op], f"{label} (detailed): {op}"
    assert events.page_faults.total > 0
    assert_trace_matches_counters(events)


@pytest.mark.sanitize
@pytest.mark.parametrize("label,scenario,overrides", SANITIZED,
                         ids=[label for label, _, _ in SANITIZED])
def test_fault_path_pins_hold_under_full_sanitizers(pins, label, scenario,
                                                    overrides):
    got = json.loads(json.dumps(measure(
        scenario, dict(overrides, sanitize=True, sanitize_mode="full"))))
    for op in OPS:
        assert got[op] == pins[label][op], f"{label} (sanitized): {op}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fault_path.py --update")
    rows = [f"{json.dumps(label)}: {{\n" + ",\n".join(
                f"  {json.dumps(op)}: {json.dumps(pin, sort_keys=True)}"
                for op, pin in sorted(ops.items())) + "}"
            for label, ops in sorted(compute_pins().items())]
    PIN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
