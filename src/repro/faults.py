"""Deterministic fault injection (the chaos substrate).

The paper's deployment argument is as much about *surviving failure* as
raw speed: kvm-ept NST crashes the container runtime outright past its
nested capacity, pins L0 state that blocks migration, and re-serializes
every restart on the host's L0 service — while PVM keeps every guest
restartable and movable entirely inside L1.  To make those claims
exercisable as experiments, this module provides a seeded,
virtual-time-triggered fault plan that the runtime, sim, migration, and
I/O layers consult at named *sites*.

Determinism contract
--------------------

* Every random draw comes from a :class:`random.Random` seeded by
  ``f"{seed}/{site}/{lane}"`` — per-site streams, so querying one site
  never shifts another site's outcomes.  String seeding is stable
  across processes and runs (it does not involve ``PYTHONHASHSEED``).
* Triggers are evaluated against **virtual time** (the querying
  context's clock), never wall clock, and query order is fixed by the
  engine's earliest-clock-first scheduling — so two runs with the same
  seed produce bit-identical fault sequences, counters, and tables.
* With no :class:`FaultPlan` installed anywhere, every consulting code
  path is a no-op and all results are unchanged.

Fault injection composes with the runtime sanitizers
(:mod:`repro.sanitize`): ``pvm-bench chaos --sanitize`` runs the same
seeded fault mix with shadow-coherence, lockdep, and VMX state-machine
checking attached, proving every recovery path (crash teardown, restart
re-serialization, boot retries) completes without leaving stale
translations, inverted lock orders, or illegal VMCS transitions — and
since the checks run outside virtual time, the sanitized rows are
bit-identical to the plain ones.

Sites
-----

========================  ====================================================
:data:`SITE_CONTAINER_BOOT`   container boot fails (runtime connection error)
:data:`SITE_GUEST_PANIC`      guest panics mid-workload (triple fault)
:data:`SITE_L0_STALL`         the L0-service holder stalls on the shared lock
:data:`SITE_VIRTIO_COMPLETION` a virtio request completes with error status
:data:`SITE_MIGRATION_COPY`   transient migration-link page-copy failure
:data:`SITE_GUEST_PHYS`       guest-physical allocation exhaustion (guest OOM)
:data:`SITE_MEMORY_PRESSURE`  host memory-pressure spike (burst allocation)
========================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hw.events import Counter


SITE_CONTAINER_BOOT = "container.boot"
SITE_GUEST_PANIC = "guest.panic"
SITE_L0_STALL = "l0.stall"
SITE_VIRTIO_COMPLETION = "virtio.completion"
SITE_MIGRATION_COPY = "migration.page-copy"
SITE_GUEST_PHYS = "guest-phys.exhausted"
SITE_MEMORY_PRESSURE = "memory.pressure-spike"

#: Every site a :class:`FaultPlan` accepts injectors for.
KNOWN_SITES = frozenset({
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_L0_STALL,
    SITE_VIRTIO_COMPLETION,
    SITE_MIGRATION_COPY,
    SITE_GUEST_PHYS,
    SITE_MEMORY_PRESSURE,
})


class FaultError(Exception):
    """Base class for injected failures (distinguishable from real bugs)."""


class GuestPanicError(FaultError):
    """The guest triple-faulted mid-workload; the VM is dead."""


class GuestOomError(FaultError):
    """The guest exhausted its guest-physical memory (OOM panic)."""


class IoCompletionError(FaultError):
    """A virtio request kept completing with errors past the retry cap."""


class MigrationLinkError(FaultError):
    """The migration link kept failing past the retry cap."""


@dataclass
class Injector:
    """One registered fault source at a named site.

    ``probability`` is evaluated once per query while the injector is
    active (``after_ns <= now < until_ns`` and under ``max_fires``).
    ``stall_ns`` is the extra hold charged by lock-stall sites.
    """

    site: str
    probability: float
    after_ns: int = 0
    until_ns: Optional[int] = None
    max_fires: Optional[int] = None
    stall_ns: int = 0
    fires: int = 0

    def active(self, now_ns: int) -> bool:
        """Whether this injector may fire at virtual time ``now_ns``."""
        if now_ns < self.after_ns:
            return False
        if self.until_ns is not None and now_ns >= self.until_ns:
            return False
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic schedule of fault injectors by site.

    Build one, register injectors with :meth:`add`, and hand it to the
    consuming layers (``RunDRuntime(fault_plan=...)``,
    ``MigrationManager.migrate_l1(plan=...)``).  The plan records every
    firing in :attr:`counts` and, when a consulting site passes an
    :class:`~repro.hw.events.EventLog`, in that log's
    ``faults_injected`` counter.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._injectors: Dict[str, List[Injector]] = {}
        self._streams: Dict[str, random.Random] = {}
        #: Fire counts by site.  Not a copy of ``faults_injected``: the
        #: boot retries, the migration link, the pressure spike and the
        #: L0 stall hook query the plan without an EventLog.
        self.counts = Counter("faults")

    # -- construction ----------------------------------------------------

    def add(
        self,
        site: str,
        probability: float,
        after_ns: int = 0,
        until_ns: Optional[int] = None,
        max_fires: Optional[int] = None,
        stall_ns: int = 0,
    ) -> Injector:
        """Register one injector; returns it for later inspection."""
        if site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known: {sorted(KNOWN_SITES)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if stall_ns < 0:
            raise ValueError("stall_ns must be non-negative")
        inj = Injector(site=site, probability=probability, after_ns=after_ns,
                       until_ns=until_ns, max_fires=max_fires,
                       stall_ns=stall_ns)
        self._injectors.setdefault(site, []).append(inj)
        return inj

    def _stream(self, site: str, lane: str = "fire") -> random.Random:
        key = f"{site}/{lane}"
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = random.Random(f"{self.seed}/{key}")
        return rng

    # -- querying --------------------------------------------------------

    def _draw(self, site: str, now_ns: int, events) -> Optional[Injector]:
        """The injector at ``site`` that fires at virtual time ``now_ns``,
        or None.

        Draws one random number per *active* injector per query, from
        the site's private stream, and stops at the first that fires.
        Records the firing in :attr:`counts` and, when ``events`` is
        given, in ``events.faults_injected``.
        """
        injectors = self._injectors.get(site)
        if not injectors:
            return None
        for inj in injectors:
            if not inj.active(now_ns):
                continue
            if self._stream(site).random() < inj.probability:
                inj.fires += 1
                self.counts[site] += 1
                if events is not None:
                    events.faults_injected[site] += 1
                return inj
        return None

    def fires(self, site: str, now_ns: int, events=None) -> bool:
        """Whether an injector at ``site`` fires at virtual time ``now_ns``
        (see :meth:`_draw`)."""
        return self._draw(site, now_ns, events) is not None

    def stall_ns(self, site: str, now_ns: int, events=None) -> int:
        """Extra hold time injected at a lock site (0 when nothing fires)."""
        inj = self._draw(site, now_ns, events)
        return 0 if inj is None else inj.stall_ns

    def lock_stall_hook(self, site: str = SITE_L0_STALL,
                        events=None) -> Callable[[int], int]:
        """A :attr:`~repro.sim.locks.SimLock.stall_hook`-shaped callable."""

        def hook(now_ns: int) -> int:
            return self.stall_ns(site, now_ns, events=events)

        return hook

    def uniform(self, site: str, lo: float, hi: float) -> float:
        """A deterministic uniform draw from ``site``'s auxiliary stream.

        Used for fault *shapes* (e.g. the fraction of a migration pass
        completed before the link dropped) so shape draws never perturb
        the fire/no-fire stream.
        """
        return self._stream(site, "shape").uniform(lo, hi)

    # -- inspection ------------------------------------------------------

    @property
    def total_fires(self) -> int:
        """Firings across all sites."""
        return self.counts.total

    def snapshot(self) -> Dict[str, int]:
        """Fire counts by site (sorted keys; safe for bit-identity checks)."""
        return {site: self.counts[site] for site in sorted(self.counts)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan seed={self.seed} fired={self.total_fires}>"
