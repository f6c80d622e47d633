"""No per-event call into the event log.

Every event is counted in place, ``counter[key] += n``, by the code
where it happens (see ``repro.hw.events.Counter``).  This runs the ops
of ``test_switch_legs`` and ``test_fault_path`` on all seven machines
under ``sys.setprofile`` and asserts that the simulator calls no
function defined in ``repro/hw/events.py``: the harness's own
``snapshot()`` and ``diff_snapshots()`` calls are the only ones.

The one exception is ``Counter.__missing__``, which runs when a key is
read before it was ever counted: once per key, never once per event.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

import repro
from repro import SCENARIOS
from repro.hw import events as events_module
from tests import test_fault_path, test_switch_legs

EVENTS_FILE = events_module.EventLog.snapshot.__code__.co_filename
SRC_DIR = os.path.dirname(repro.__file__)
MISSING = "Counter.__missing__"


def _simulator_calls_into_events(run):
    """Run ``run()`` and count the calls the simulator (code under
    ``src/repro``, outside ``events.py``) made into ``events.py``, by
    qualified name.  Returns the counts and what ``run()`` returned."""
    calls = Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename != EVENTS_FILE:
            return
        caller = frame.f_back.f_code.co_filename
        if caller.startswith(SRC_DIR) and caller != EVENTS_FILE:
            calls[code.co_qualname] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _switch_legs(scenario):
    events = events_module.EventLog()
    m, ctx, proc = test_switch_legs.warm_machine(scenario, {}, events)
    test_switch_legs.pins_of(m, ctx, proc)
    return events


def _fault_path(scenario):
    events = events_module.EventLog()
    test_fault_path.measure(scenario, {}, events)
    return events


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("ops", [_switch_legs, _fault_path],
                         ids=["switch_legs", "fault_path"])
def test_no_event_log_call_per_event(scenario, ops):
    calls, log = _simulator_calls_into_events(lambda: ops(scenario))
    assert set(calls) <= {MISSING}, calls
    keys = sum(len(counter) for counter in log._counters())
    assert calls[MISSING] <= keys
    assert log.world_switches.total + log.guest_transitions.total > 0
