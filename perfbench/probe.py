"""The host-speed probe behind ``cost_norm``.

A fixed amount of pure-Python work shaped like the simulator's inner
loops: method calls on slotted objects scattered over a heap of several
MiB, and small dict updates.  It touches no simulator code, so a change
to the simulator cannot move it; a change in host load moves it about as
much as it moves the simulator.  The benchmark runs it between work
items, so each item is divided by a probe from the same load window.

The scattered heap matters.  On a shared host the simulator is partly
memory-bound, and a probe whose data fits in cache slows down more than
the simulator does when neighbours load the machine (measured on a
2-core VM: a cache-resident probe moved about 35% with load where the
simulator/probe ratio of this one moved about 6%).
"""

from __future__ import annotations

import time

#: Objects in the probe's heap, and objects visited by one probe.
HEAP_OBJECTS = 1 << 16
PROBE_VISITS = 25_000
#: Host seconds of one probe on the reference host (a shared 2-core x86
#: VM under CPython 3): set-up time is reported at this host speed.
REFERENCE_S = 0.020
#: Linear-congruential step that scatters visits over the heap.
_LCG_MUL = 1103515245
_LCG_ADD = 12345


class _Entry:
    __slots__ = ("frame", "hits", "links")

    def __init__(self, frame: int) -> None:
        self.frame = frame
        self.hits = 0
        self.links = {}

    def touch(self, key: int) -> int:
        self.hits += 1
        links = self.links
        links[key] = links.get(key, 0) + 1
        return self.frame


class Probe:
    """A heap of entries, built once, and the fixed walk over it."""

    def __init__(self) -> None:
        self.heap = [_Entry(i) for i in range(HEAP_OBJECTS)]

    def work(self) -> int:
        """Run the fixed probe work; returns a checksum of it."""
        heap = self.heap
        mask = HEAP_OBJECTS - 1
        acc = 0
        idx = 1
        for i in range(PROBE_VISITS):
            idx = (idx * _LCG_MUL + _LCG_ADD) & mask
            entry = heap[idx]
            acc += entry.touch(i & 3)
            if i & 63 == 0:
                entry.links.clear()
        return acc

    def seconds(self) -> float:
        """Host seconds one probe takes right now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
