"""Per-layer host-time tracing for the traced benchmark run.

The simulator is not instrumented.  Instead, for the traced run only,
:class:`Tracer` replaces the public methods of each layer's classes with
timing wrappers, and restores the originals afterwards.  Every wrapped
call is a span with a parent (the innermost wrapped call that was open
when it started).  A layer's self time is the inclusive time of its
spans minus the time of their child spans, so the self times of all
layers plus the unattributed remainder add up to the traced wall time.

Wrappers cost host time on every call, so the traced run is slower than
the untraced one; the benchmark reports that ratio as
``trace.overhead`` and takes every end-to-end metric from untraced runs.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> modules whose classes form that layer.  Modules not
#: listed here have no spans of their own; their host time is counted as
#: self time of the nearest listed caller.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "hw.pagetable": ("repro.hw.pagetable",),
    "hw.mmu": ("repro.hw.mmu",),
    "hw.memory": ("repro.hw.memory",),
    "hw.events": ("repro.hw.events",),
    "core.switcher": ("repro.core.switcher",),
    "core.shadow": ("repro.core.shadow",),
    "hypervisors": (
        "repro.hypervisors.base",
        "repro.hypervisors.kvm_ept",
        "repro.hypervisors.kvm_spt",
        "repro.hypervisors.ept_on_ept",
        "repro.hypervisors.spt_on_ept",
        "repro.hypervisors.nested",
        "repro.core.pvm_machine",
        "repro.core.direct_paging",
        "repro.core.hypervisor",
        "repro.core.hypercalls",
        "repro.core.interrupts",
        "repro.core.emulator",
        "repro.core.prefault",
        "repro.core.pcid",
        "repro.core.sptlocks",
    ),
    "guest.kernel": ("repro.guest.kernel",),
    "sim.locks": ("repro.sim.locks",),
    "sim.engine": ("repro.sim.engine",),
    "containers": ("repro.containers.runtime", "repro.containers.container"),
    "memory": ("repro.memory.qos", "repro.memory.wse"),
    "io.balloon": ("repro.io.balloon",),
    "faults": ("repro.faults",),
    "sanitize": (
        "repro.sanitize",
        "repro.sanitize.core",
        "repro.sanitize.shadow_coherence",
        "repro.sanitize.lockdep",
        "repro.sanitize.vmxstate",
    ),
}

#: Classes left unwrapped: ``Counter.add`` runs inside every EventLog
#: call, and wrapping it would double the cost of the hottest layer
#: without telling anything the EventLog spans do not.
SKIP_CLASSES = frozenset({"repro.hw.events.Counter"})

#: How many spans of one traced call are kept verbatim for the trace
#: file; the per-edge aggregates cover every span regardless.
SPAN_CAP = 2_000


def _targets() -> List[Tuple[str, type, str, Callable]]:
    """Every (layer, class, method name, function) the tracer wraps."""
    out = []
    for layer, modules in LAYER_MODULES.items():
        for modname in modules:
            module = importlib.import_module(modname)
            for cls in vars(module).values():
                if (
                    not inspect.isclass(cls)
                    or cls.__module__ != modname
                    or issubclass(cls, (BaseException, enum.Enum))
                    or f"{modname}.{cls.__qualname__}" in SKIP_CLASSES
                ):
                    continue
                for name, fn in vars(cls).items():
                    if (
                        name.startswith("_")
                        or not inspect.isfunction(fn)
                        or getattr(fn, "__isabstractmethod__", False)
                    ):
                        continue
                    out.append((layer, cls, name, fn))
    return out


class Tracer:
    """Installs span wrappers and accumulates per-layer host time.

    Use as ``install()`` ... ``active = True`` ... ``active = False``
    ... ``uninstall()``: objects built while installed but inactive
    already hold wrapped bound methods, and their calls are only timed
    while ``active`` is set.
    """

    def __init__(self) -> None:
        self.active = False
        self._saved: List[Tuple[type, str, Callable]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (not the installation)."""
        #: Open spans, innermost last: [qualname, start, child seconds, id].
        self._stack: List[list] = []
        self._next_id = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        #: (parent qualname, qualname) -> [count, inclusive s, self s].
        self.edges: Dict[Tuple[str, str], list] = {}
        #: Inclusive time of spans with no traced parent.
        self.top_s = 0.0
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        #: Sum of the wait values returned by ``SimLock.run_locked``.
        self.lock_wait_ns = 0
        #: Engine task steps counted when each ``Engine.run`` returns.
        self.engine_steps = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target method with a timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, cls, name, fn in _targets():
            self._saved.append((cls, name, fn))
            setattr(cls, name, self._wrap(layer, cls, name, fn))

    def uninstall(self) -> None:
        """Put every original method back."""
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()
        self.active = False

    def _wrap(self, layer: str, cls: type, name: str, fn: Callable) -> Callable:
        qualname = f"{layer}:{cls.__name__}.{name}"
        tracer = self
        clock = time.perf_counter
        post = None
        if cls.__name__ == "SimLock" and name == "run_locked":
            def post(args, result):
                tracer.lock_wait_ns += result
        elif cls.__name__ == "Engine" and name == "run":
            def post(args, result):
                tracer.engine_steps += sum(t.steps for t in args[0].tasks)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [qualname, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(layer, qualname, frame, start, end)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _close(self, layer: str, qualname: str, frame: list,
               start: float, end: float) -> None:
        total = end - start
        own = total - frame[2]
        self.calls[qualname] += 1
        self.layer_calls[layer] += 1
        self.self_s[layer] += own
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += total
            parent_name, parent_id = parent[0], parent[3]
        else:
            self.top_s += total
            parent_name, parent_id = None, None
        edge = self.edges.get((parent_name, qualname))
        if edge is None:
            self.edges[(parent_name, qualname)] = [1, total, own]
        else:
            edge[0] += 1
            edge[1] += total
            edge[2] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], parent_id, qualname, start, end))

    # -- reading -----------------------------------------------------------

    def dump(self) -> dict:
        """A JSON-ready record of everything traced since :meth:`reset`."""
        base = self.spans[0][3] if self.spans else 0.0
        return {
            "layers": {
                layer: {"calls": self.layer_calls[layer],
                        "self_ms": self.self_s[layer] * 1e3}
                for layer in sorted(self.layer_calls)
            },
            "edges": [
                {"parent": p, "name": q, "count": c,
                 "incl_ms": incl * 1e3, "self_ms": own * 1e3}
                for (p, q), (c, incl, own) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])
            ],
            "spans": [
                {"id": i, "parent": p, "name": q,
                 "start_us": (s - base) * 1e6, "end_us": (e - base) * 1e6}
                for i, p, q, s, e in self.spans
            ],
            "span_cap": SPAN_CAP,
        }
