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

A miss is returned, not raised: both accessors return ``-1`` and leave
the fault descriptor (:class:`~repro.hw.types.PageFault` for the guest
dimension, :class:`~repro.hw.types.EptViolation` for the extended one)
in :attr:`Mmu.fault`.  The MMU never "fixes" anything itself — that is
hypervisor or kernel policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.hw.costs import CostModel
from repro.hw.events import EventLog
from repro.hw.pagetable import (
    HUGE_PAGE_PAGES,
    PageTable,
    PageTableNode,
    WalkResult,
    page_fault,
)
from repro.hw.psc import PagingStructureCache
from repro.hw.tlb import HUGE_SPAN, HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import (
    ENTRIES_PER_TABLE,
    LEVEL_BITS,
    AccessType,
    Asid,
    EptViolation,
    PageFault,
)
from repro.sim.clock import Clock

#: Entries in the per-vCPU guest-physical translation cache (the
#: EPT-side analogue of the paging-structure caches; only active when a
#: PSC is attached).
GPA_CACHE_CAPACITY = 512


_READ = AccessType.READ
_WRITE = AccessType.WRITE
_EXECUTE = AccessType.EXECUTE
_INDEX_MASK = ENTRIES_PER_TABLE - 1


class Mmu:
    """The address-translation engine of one simulated machine.

    ``psc`` attaches the paging-structure caches; ``None`` (the default)
    disables them and reproduces the seed cost model exactly.
    """

    __slots__ = (
        "tlb", "events", "costs", "psc", "_gpa_cache",
        "_tlb_get", "_tlb_stats", "_hit_ns",
        "_step_1d_ns", "_step_2d_ns", "fault", "sanitizer",
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
        self._tlb_get = tlb._entries.get  # bound once; dict never rebound
        self._tlb_stats = tlb.stats
        self._hit_ns = costs.tlb_hit
        # Walk-step costs, validated non-negative by the CostModel, so
        # the walks add them to ``clock.now`` directly.
        self._step_1d_ns = costs.walk_step_1d
        self._step_2d_ns = costs.walk_step_2d
        #: Descriptor of the last miss: set whenever an access returns -1.
        self.fault: Union[PageFault, EptViolation, None] = None
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

        Returns the target frame.  On a miss or permission violation it
        charges the partial walk, leaves the :class:`PageFault` in
        :attr:`fault` and returns -1.
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
        if psc is None:
            # Seed model: full depth wherever the walk ended (the
            # difference is below our cost resolution).
            clock.now += pt.levels * self._step_1d_ns
            hit = pt.leaves.get((vpn >> LEVEL_BITS) & pt.leaf_key_mask)
            if hit is not None:
                # :meth:`PageTable.walk`'s leaf step, with no WalkResult.
                pte = hit[0].entries.get(vpn & _INDEX_MASK)
                if pte is None:
                    self.fault = page_fault(vpn, access, user, False, 1)
                    return -1
                if ((user and not pte.user)
                        or (access is _WRITE and not pte.writable)
                        or (access is _EXECUTE and not pte.executable)):
                    self.fault = page_fault(vpn, access, user, True, 1)
                    return -1
                pte.accessed = True
                if access is _WRITE:
                    pte.dirty = True
                self.tlb.insert_packed(akey, vpn, pte.frame,
                                       global_=cache_global and pte.global_)
                return pte.frame
            # Starting at the root skips the index probe just missed.
            result = pt.walk(vpn, access, user, pt.root)
            if type(result) is PageFault:
                self.fault = result
                return -1
        else:
            start = psc.lookup(pt, akey, vpn)
            self.events.psc_probes["hit" if start is not None else "miss"] += 1
            result = pt.walk(vpn, access, user, start=start)
            clock.now += self._psc_walk_ns(pt, start, result,
                                           self._step_1d_ns)
            if type(result) is PageFault:
                self.fault = result
                return -1
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

        Returns the final host frame.  On a miss it returns -1 with a
        :class:`PageFault` in :attr:`fault` when the guest dimension
        misses (a *guest* page fault, delivered to the guest kernel) or
        an :class:`EptViolation` when the extended dimension misses
        (delivered to the hypervisor).

        Without PSCs the miss is one inline walk per dimension: the
        guest table is walked once, keeping only the frames of the nodes
        it reads, then each of those frames and the guest leaf frame
        takes one EPT leg — with the checks, A/D updates, fault levels
        and charges of :meth:`PageTable.walk`.  Each dimension starts
        at its table's leaf-table index: a hit is one probe plus one
        entry read; the loop runs only for a missing leaf table or a
        2 MiB entry.

        The node legs of an indexed guest leaf table are memoized on its
        node (``ept_memo``): the EPT leaf entries they reached, valid
        while ``ept.stamp`` is unchanged.  Node legs are reads, which
        only fail on a missing entry, and only a removal (which bumps the
        stamp) takes an entry away; so a hit charges the legs at
        full depth in one add, sets their accessed bits and runs only
        the guest leaf frame's leg.
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
        if self.psc is not None:
            return self._access_2d_psc(clock, akey, gpt, ept, vpn, access,
                                       user)
        # Guest dimension, charged at full depth wherever it stops.
        clock.now += gpt.levels * self._step_2d_ns
        # The guest's table pages live in guest-physical memory; hardware
        # translates each of them through the EPT during the nested walk.
        guest_huge = False
        hit = gpt.leaves.get((vpn >> LEVEL_BITS) & gpt.leaf_key_mask)
        if hit is not None:
            level = 1
            pte = hit[0].entries.get(vpn & _INDEX_MASK)
            if pte is None:
                self.fault = page_fault(vpn, access, user, False, 1)
                return -1
        else:
            node = gpt.root
            frames = [node.frame]
            level = node.level
            while level > 1:
                pte = node.entries.get((vpn >> (level - 1) * LEVEL_BITS)
                                       & _INDEX_MASK)
                if type(pte) is not PageTableNode:
                    if pte is None or not pte.huge or level != 2:
                        self.fault = page_fault(vpn, access, user, False,
                                                level)
                        return -1
                    guest_huge = True
                    break
                node = pte
                frames.append(node.frame)
                level -= 1
            else:
                pte = node.entries.get(vpn & _INDEX_MASK)
                if pte is None:
                    self.fault = page_fault(vpn, access, user, False, 1)
                    return -1
        if ((user and not pte.user)
                or (access is _WRITE and not pte.writable)
                or (access is _EXECUTE and not pte.executable)):
            self.fault = page_fault(vpn, access, user, True, level)
            return -1
        pte.accessed = True
        if access is _WRITE:
            pte.dirty = True
        # Extended dimension: one leg per guest node frame (a read), then
        # the guest leaf frame with the real access.  Every leg is charged
        # at full depth, the faulting one included.
        leg_ns = ept.levels * self._step_1d_ns
        memo_node = None
        if hit is None:
            frames.append(pte.frame + vpn % HUGE_PAGE_PAGES if guest_huge
                          else pte.frame)
        else:
            memo = hit[0].ept_memo
            if memo is not None and memo[0] == ept.stamp:
                # The memoized node legs, charged and marked as the loop
                # below would; only the guest leaf frame's leg runs.
                clock.now += len(memo[1]) * leg_ns
                for leaf in memo[1]:
                    leaf.accessed = True
                frames = (pte.frame,)
            else:
                memo_node = hit[0]
                frames = (*hit[2], pte.frame)
        ept_leaves = ept.leaves
        ept_mask = ept.leaf_key_mask
        last = len(frames) - 1
        reached = []
        for i, gfn in enumerate(frames):
            clock.now += leg_ns
            leg_access = access if i == last else _READ
            hit = ept_leaves.get((gfn >> LEVEL_BITS) & ept_mask)
            if hit is not None:
                level = 1
                leaf = hit[0].entries.get(gfn & _INDEX_MASK)
                if leaf is None:
                    self.fault = EptViolation(gfn << 12, leg_access, 1)
                    return -1
            else:
                node = ept.root
                level = node.level
                while level > 1:
                    leaf = node.entries.get((gfn >> (level - 1) * LEVEL_BITS)
                                            & _INDEX_MASK)
                    if type(leaf) is not PageTableNode:
                        if leaf is None or not leaf.huge or level != 2:
                            self.fault = EptViolation(gfn << 12, leg_access,
                                                      level)
                            return -1
                        break
                    node = leaf
                    level -= 1
                else:
                    leaf = node.entries.get(gfn & _INDEX_MASK)
                    if leaf is None:
                        self.fault = EptViolation(gfn << 12, leg_access, 1)
                        return -1
            if ((leg_access is _WRITE and not leaf.writable)
                    or (leg_access is _EXECUTE and not leaf.executable)):
                self.fault = EptViolation(gfn << 12, leg_access, level)
                return -1
            leaf.accessed = True
            if leg_access is _WRITE:
                leaf.dirty = True
            if i < last:
                reached.append(leaf)
        if memo_node is not None:
            memo_node.ept_memo = (ept.stamp, tuple(reached))
        # ``level`` is where the leaf leg ended: 2 for a huge EPT entry.
        # A guest-huge translation can only fill a huge TLB entry when the
        # extended dimension preserves contiguity, i.e. that leaf is huge.
        if level == 2:
            frame = leaf.frame + gfn % HUGE_PAGE_PAGES
            self.tlb.insert_packed(akey, vpn, frame, huge=guest_huge)
        else:
            frame = leaf.frame
            self.tlb.insert_packed(akey, vpn, frame)
        return frame

    def _access_2d_psc(
        self,
        clock: Clock,
        akey: int,
        gpt: PageTable,
        ept: PageTable,
        vpn: int,
        access: AccessType,
        user: bool,
    ) -> int:
        """The TLB-miss half of :meth:`access_2d` with PSCs attached."""
        psc = self.psc
        start = psc.lookup(gpt, akey, vpn)
        self.events.psc_probes["hit" if start is not None else "miss"] += 1
        result = gpt.walk(vpn, access, user, start=start)
        clock.now += self._psc_walk_ns(gpt, start, result, self._step_2d_ns)
        if type(result) is PageFault:
            self.fault = result
            return -1
        # A PSC-resumed walk read fewer guest nodes, so it also performs
        # fewer nested resolutions — the 2-D collapse.
        for node in result.nodes:
            if self._ept_resolve(clock, ept, node.frame, _READ) is None:
                return -1
        # Finally translate the leaf guest frame with the real access type.
        leaf = self._ept_resolve(clock, ept, result.frame, access)
        if leaf is None:
            return -1
        # Fill only after every nested leg resolved: caching earlier would
        # let a retry resume past upper nodes whose EPT violations never
        # surfaced, making PSC-on runs *behave* differently (fewer
        # hypervisor mappings) instead of merely costing less.
        psc.fill(gpt, akey, vpn, result.nodes)
        self.tlb.insert_packed(akey, vpn, leaf.frame,
                               huge=result.huge and leaf.huge)
        return leaf.frame

    def _psc_walk_ns(
        self,
        pt: PageTable,
        start: Optional[PageTableNode],
        result: Union[WalkResult, PageFault],
        step: int,
    ) -> int:
        """Nanoseconds for one PSC-resumed walk: the levels actually
        read — down to the faulting level on a fault — plus the probe."""
        if type(result) is PageFault:
            start_level = pt.levels if start is None else start.level
            levels = start_level - result.level + 1
        else:
            levels = result.levels_walked
        cost = levels * step
        if start is not None:
            cost += self.costs.walk_step_cached
        return cost

    def _ept_resolve(
        self, clock: Clock, ept: PageTable, guest_frame: int, access: AccessType
    ) -> Optional[WalkResult]:
        """One nested EPT leg with PSCs attached: the EPT walk of one
        guest frame, or None with the :class:`EptViolation` in
        :attr:`fault`.

        Repeat translations of the same guest frame hit the GPA cache at
        ``walk_step_cached`` instead of re-walking all ``ept.levels``
        levels.
        """
        cache = self._gpa_cache
        key = (ept.uid << 52) | guest_frame
        hit = cache.get(key)
        if hit is not None:
            walk, stamp = hit
            if stamp == ept.entry_writes and walk.pte.permits(access, False):
                clock.now += self.costs.walk_step_cached
                self.events.psc_probes["gpa-hit"] += 1
                walk.pte.accessed = True
                if access is _WRITE:
                    walk.pte.dirty = True
                return walk
            del cache[key]
        self.events.psc_probes["gpa-miss"] += 1
        walk = ept.walk(guest_frame, access, user=False)
        clock.now += ept.levels * self._step_1d_ns
        if type(walk) is PageFault:
            self.fault = EptViolation(guest_frame << 12, access, walk.level)
            return None
        if len(cache) >= GPA_CACHE_CAPACITY:
            del cache[next(iter(cache))]
        cache[key] = (walk, ept.entry_writes)
        return walk

    # -- flush helpers --------------------------------------------------------

    def flush_page(self, clock: Clock, asid: Asid, vpn: int) -> int:
        """INVLPG one translation.  Returns entries dropped (0 or 1)."""
        n = self.tlb.flush_page(asid, vpn)
        if self.psc is not None:
            # INVLPG also flushes paging-structure-cache entries for the
            # address (SDM vol. 3 §4.10.4.1).
            self.psc.invalidate_page(asid.key, vpn)
        self.events.tlb_flushes["page"] += 1
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
        self.events.tlb_flushes["pcid"] += 1
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
        self.events.tlb_flushes["vpid"] += 1
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
        self.events.tlb_flushes["full"] += 1
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
