"""Software MMU: one-dimensional and two-dimensional page walks.

``access_1d`` models a CPU translating through a single page table
(bare-metal kernels, or a guest running on a *shadow* page table, where
the hardware sees only SPT12).  ``access_2d`` models hardware
EPT-assisted translation: the guest dimension (GPT) is walked with each
step nested through the extended dimension (EPT), exactly the structure
whose per-step cost the paper's ``walk_step_2d`` reflects.

With a :class:`~repro.hw.psc.PagingStructureCache` attached, TLB misses
resume their walk from the deepest cached intermediate node and are
charged only for the levels actually read (plus one ``walk_step_cached``
probe); nested walks additionally serve repeat guest-physical
translations from a small per-vCPU GPA cache, collapsing the 2-D walk's
24-step worst case toward observed EPT behavior.  Without a PSC the MMU
charges exactly the seed model's full-depth cost — virtual-time numbers
are bit-identical to the pre-PSC simulator.

All misses are surfaced as exceptions carrying structured fault
descriptors; the MMU never "fixes" anything itself — that is hypervisor
or kernel policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.costs import CostModel
from repro.hw.events import EventLog
from repro.hw.pagetable import PageFaultException, PageTable, WalkResult
from repro.hw.psc import PagingStructureCache
from repro.hw.tlb import HUGE_SPAN, HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import AccessType, Asid, EptViolation
from repro.sim.clock import Clock

#: Entries in the per-vCPU guest-physical translation cache (the
#: EPT-side analogue of the paging-structure caches; only active when a
#: PSC is attached).
GPA_CACHE_CAPACITY = 512


_READ = AccessType.READ


class EptViolationException(Exception):
    """Raised when the extended dimension lacks a required translation.

    Like :class:`~repro.hw.pagetable.PageFaultException`, ``args`` holds
    the descriptor and the message is formatted on demand.
    """

    def __init__(self, violation: EptViolation) -> None:
        super().__init__(violation)
        self.violation = violation

    def __str__(self) -> str:
        return f"EPT violation @ gpa {self.violation.gpa:#x}"


class Mmu:
    """The address-translation engine of one simulated machine.

    ``psc`` attaches the paging-structure caches; ``None`` (the default)
    disables them and reproduces the seed cost model exactly.
    """

    __slots__ = (
        "tlb", "events", "costs", "psc", "_gpa_cache",
        "_tlb_entries", "_tlb_get", "_tlb_stats", "_hit_ns",
        "sanitizer",
    )

    def __init__(
        self,
        tlb: Tlb,
        events: EventLog,
        costs: CostModel,
        psc: Optional[PagingStructureCache] = None,
    ) -> None:
        self.tlb = tlb
        self.events = events
        self.costs = costs
        self.psc = psc
        # ept.uid-tagged gfn -> (walk result, ept.entry_writes stamp).
        # Any EPT entry write bumps the stamp, conservatively (and
        # deterministically) invalidating every cached translation.
        self._gpa_cache: Dict[int, Tuple[WalkResult, int]] = {}
        # Hot-path aliases: the TLB's entry dict is never rebound (see
        # Tlb.__init__) and CostModel is frozen, so the probe can skip
        # two method calls and three attribute chases per translation.
        self._tlb_entries = tlb._entries
        self._tlb_get = tlb._entries.get  # bound once; dict never rebound
        self._tlb_stats = tlb.stats
        self._hit_ns = costs.tlb_hit
        #: Optional ShadowCoherenceSanitizer; consulted only on the cold
        #: flush paths (never on the translation hot path).
        self.sanitizer = None

    # -- one-dimensional translation ----------------------------------------

    def access_1d(
        self,
        clock: Clock,
        asid: Asid,
        pt: PageTable,
        vpn: int,
        access: AccessType,
        user: bool,
        cache_global: bool = False,
    ) -> int:
        """Translate ``vpn`` through a single page table.

        Returns the target frame.  Raises
        :class:`~repro.hw.pagetable.PageFaultException` on a miss or
        permission violation, after charging the partial walk.
        """
        akey = asid.key
        entry = self._tlb_get((akey << KEY_SHIFT) | vpn)
        if entry is not None:
            self._tlb_stats.hits += 1
            # Inlined clock.advance(costs.tlb_hit): the constant is
            # non-negative by construction, so the guard is redundant.
            clock.now += self._hit_ns
            # Permission downgrades always flush, so a TLB hit is safe to
            # trust for permissions in this model.
            return entry.frame
        entry = self._tlb_get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
        if entry is not None:
            self._tlb_stats.hits += 1
            clock.now += self._hit_ns
            return entry.frame + (vpn % HUGE_SPAN)
        self._tlb_stats.misses += 1
        psc = self.psc
        start = None
        if psc is not None:
            start = psc.lookup(pt, akey, vpn)
            self.events.psc_event("hit" if start is not None else "miss")
        try:
            result = pt.walk(vpn, access, user, start=start)
        except PageFaultException as exc:
            # Charge the walk that discovered the fault: full depth
            # without PSCs (seed model), the levels actually read — down
            # to the faulting level — with them.
            clock.advance(
                self._walk_cost(pt, start, exc, None, self.costs.walk_step_1d)
            )
            raise
        clock.advance(self._walk_cost(pt, start, None, result,
                                      self.costs.walk_step_1d))
        if psc is not None:
            psc.fill(pt, akey, vpn, result.nodes)
        self.tlb.insert_packed(
            akey, vpn, result.frame,
            global_=cache_global and result.pte.global_,
            huge=result.huge,
        )
        return result.frame

    # -- two-dimensional translation ------------------------------------------

    def access_2d(
        self,
        clock: Clock,
        asid: Asid,
        gpt: PageTable,
        ept: PageTable,
        vpn: int,
        access: AccessType,
        user: bool,
    ) -> int:
        """Translate ``vpn`` through GPT nested over EPT.

        Raises :class:`~repro.hw.pagetable.PageFaultException` when the
        guest dimension misses (a *guest* page fault, delivered to the
        guest kernel) and :class:`EptViolationException` when the
        extended dimension misses (delivered to the hypervisor).
        Returns the final host frame.
        """
        akey = asid.key
        entry = self._tlb_get((akey << KEY_SHIFT) | vpn)
        if entry is not None:
            self._tlb_stats.hits += 1
            clock.now += self._hit_ns
            return entry.frame
        entry = self._tlb_get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
        if entry is not None:
            self._tlb_stats.hits += 1
            clock.now += self._hit_ns
            return entry.frame + (vpn % HUGE_SPAN)
        self._tlb_stats.misses += 1
        psc = self.psc
        start = None
        if psc is not None:
            start = psc.lookup(gpt, akey, vpn)
            self.events.psc_event("hit" if start is not None else "miss")
        try:
            result: WalkResult = gpt.walk(vpn, access, user, start=start)
        except PageFaultException as exc:
            clock.advance(
                self._walk_cost(gpt, start, exc, None, self.costs.walk_step_2d)
            )
            raise
        clock.advance(self._walk_cost(gpt, start, None, result,
                                      self.costs.walk_step_2d))
        # The guest's table pages live in guest-physical memory; hardware
        # translates each of them through the EPT during the nested walk.
        # A PSC-resumed walk read fewer guest nodes, so it also performs
        # fewer nested resolutions — the 2-D collapse.
        for node in result.nodes:
            self._ept_resolve(clock, ept, node.frame, _READ)
        # Finally translate the leaf guest frame with the real access type.
        frame, huge = self._ept_resolve(clock, ept, result.frame, access)
        # Fill only after every nested leg resolved: caching earlier would
        # let a retry resume past upper nodes whose EPT violations never
        # surfaced, making PSC-on runs *behave* differently (fewer
        # hypervisor mappings) instead of merely costing less.
        if psc is not None:
            psc.fill(gpt, akey, vpn, result.nodes)
        # A guest-huge translation can only fill a huge TLB entry when the
        # extended dimension preserves contiguity, i.e. the EPT leaf that
        # resolved the guest frame is huge too.
        self.tlb.insert_packed(akey, vpn, frame, huge=result.huge and huge)
        return frame

    def _walk_cost(
        self,
        pt: PageTable,
        start,
        fault: Optional[PageFaultException],
        result: Optional[WalkResult],
        step: int,
    ) -> int:
        """Nanoseconds to charge for one (possibly partial) walk."""
        if self.psc is None:
            # Seed model: full depth regardless of where the walk ended
            # (the difference is below our cost resolution).
            return pt.levels * step
        if result is not None:
            levels = result.levels_walked
        else:
            start_level = pt.levels if start is None else start.level
            levels = start_level - fault.fault.level + 1
        cost = levels * step
        if start is not None:
            cost += self.costs.walk_step_cached
        return cost

    def _ept_resolve(
        self, clock: Clock, ept: PageTable, guest_frame: int, access: AccessType
    ) -> Tuple[int, bool]:
        """Inner EPT walk of one guest frame number; ``(frame, huge)``.

        Without PSCs this is :meth:`PageTable.walk_leaf`: the leg needs
        only the leaf, so no visited-node tuple is built.  With PSCs
        enabled, repeat translations of the same guest frame hit the GPA
        cache at ``walk_step_cached`` instead of re-walking all
        ``ept.levels`` levels.
        """
        psc = self.psc
        if psc is not None:
            key = (ept.uid << 52) | guest_frame
            hit = self._gpa_cache.get(key)
            if hit is not None:
                walk, stamp = hit
                if stamp == ept.entry_writes and walk.pte.permits(access, False):
                    clock.advance(self.costs.walk_step_cached)
                    self.events.psc_event("gpa-hit")
                    walk.pte.accessed = True
                    if access is AccessType.WRITE:
                        walk.pte.dirty = True
                    return walk.frame, walk.huge
                del self._gpa_cache[key]
            self.events.psc_event("gpa-miss")
        try:
            if psc is None:
                leaf = ept.walk_leaf(guest_frame, access, False)
            else:
                walk = ept.walk(guest_frame, access, user=False)
        except PageFaultException as exc:
            clock.now += ept.levels * self.costs.walk_step_1d
            raise EptViolationException(
                EptViolation(
                    gpa=guest_frame << 12, access=access, level=exc.fault.level
                )
            ) from exc
        # Inlined clock.advance: the leg's cost is non-negative by
        # construction, so the guard is redundant.
        clock.now += ept.levels * self.costs.walk_step_1d
        if psc is None:
            return leaf
        cache = self._gpa_cache
        if len(cache) >= GPA_CACHE_CAPACITY:
            del cache[next(iter(cache))]
        cache[(ept.uid << 52) | guest_frame] = (walk, ept.entry_writes)
        return walk.frame, walk.huge

    # -- flush helpers --------------------------------------------------------

    def flush_page(self, clock: Clock, asid: Asid, vpn: int) -> int:
        """INVLPG one translation.  Returns entries dropped (0 or 1)."""
        n = self.tlb.flush_page(asid, vpn)
        if self.psc is not None:
            # INVLPG also flushes paging-structure-cache entries for the
            # address (SDM vol. 3 §4.10.4.1).
            self.psc.invalidate_page(asid.key, vpn)
        self.events.tlb_flush("page")
        clock.advance(self.costs.tlb_flush_op)
        san = self.sanitizer
        if san is not None:
            san.check_flush_page(self.tlb, asid, vpn)
        return n

    def flush_pcid(self, clock: Clock, asid: Asid) -> int:
        """Flush one (VPID, PCID) — the fine-grained flush PVM's PCID
        mapping makes possible for L2 processes."""
        n = self.tlb.flush_pcid(asid)
        if self.psc is not None:
            self.psc.invalidate_asid(asid.key)
        self.events.tlb_flush("pcid")
        clock.advance(self.costs.tlb_flush_op)
        san = self.sanitizer
        if san is not None:
            san.check_flush_pcid(self.tlb, asid)
        return n

    def flush_vpid(self, clock: Clock, vpid: int) -> int:
        """Flush a whole VM's translations — the coarse flush that makes
        un-mapped-PCID guests pay a cold-start penalty."""
        n = self.tlb.flush_vpid(vpid)
        if self.psc is not None:
            self.psc.invalidate_vpid(vpid)
            self._gpa_cache.clear()
        self.events.tlb_flush("vpid")
        clock.advance(self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra)
        san = self.sanitizer
        if san is not None:
            san.check_flush_vpid(self.tlb, vpid)
        return n

    def flush_all(self, clock: Clock) -> int:
        """Drop every cached translation."""
        n = self.tlb.flush_all()
        if self.psc is not None:
            self.psc.clear()
            self._gpa_cache.clear()
        self.events.tlb_flush("full")
        clock.advance(self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra)
        san = self.sanitizer
        if san is not None:
            san.check_flush_all(self.tlb)
        return n

    def drop_vpid(self, vpid: int) -> int:
        """Remote-shootdown invalidation of one VM's translations.

        Unlike :meth:`flush_vpid` this charges no time and records no
        event on the *victim*: the initiator pays the IPI cost, while the
        remote CPU merely loses its cached state.  Keeps the TLB, the
        paging-structure caches, and the GPA cache coherent in one call.
        """
        n = self.tlb.flush_vpid(vpid)
        if self.psc is not None:
            self.psc.invalidate_vpid(vpid)
            self._gpa_cache.clear()
        san = self.sanitizer
        if san is not None:
            san.check_flush_vpid(self.tlb, vpid)
        return n
