"""Software MMU: one-dimensional and two-dimensional page walks.

``access_1d`` models a CPU translating through a single page table
(bare-metal kernels, or a guest running on a *shadow* page table, where
the hardware sees only SPT12).  ``access_2d`` models hardware
EPT-assisted translation: the guest dimension (GPT) is walked with each
step nested through the extended dimension (EPT), exactly the structure
whose per-step cost the paper's ``walk_step_2d`` reflects.

Every TLB miss is charged at full depth (``levels x walk_step_1d``, or
``levels x walk_step_2d`` for the guest dimension plus
``ept.levels x walk_step_1d`` per nested EPT leg) — the paper's cost
model.  Each accessor has exactly one miss path.

A miss is returned, not raised: both accessors return ``-1`` and leave
the fault descriptor (:class:`~repro.hw.types.PageFault` for the guest
dimension, :class:`~repro.hw.types.EptViolation` for the extended one)
in :attr:`Mmu.fault`.  The MMU never "fixes" anything itself — that is
hypervisor or kernel policy.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.hw.costs import CostModel
from repro.hw.events import EventLog
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageTable, Pte, page_fault
from repro.hw.tlb import HUGE_SPAN, HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import (
    ENTRIES_PER_TABLE,
    LEVEL_BITS,
    AccessType,
    Asid,
    EptViolation,
    PageFault,
    build_record,
)
from repro.sim.clock import Clock


_READ = AccessType.READ
_WRITE = AccessType.WRITE
_EXECUTE = AccessType.EXECUTE
_INDEX_MASK = ENTRIES_PER_TABLE - 1


class Mmu:
    """The address-translation engine of one simulated machine."""

    __slots__ = (
        "tlb", "events", "costs",
        "_tlb_get", "_tlb_stats", "_hit_ns",
        "_step_1d_ns", "_step_2d_ns", "fault", "sanitizer",
    )

    def __init__(self, tlb: Tlb, events: EventLog, costs: CostModel) -> None:
        self.tlb = tlb
        self.events = events
        self.costs = costs
        # Hot-path aliases: the TLB's entry dict is never rebound (see
        # Tlb.__init__) and CostModel is frozen, so the probe can skip
        # two method calls and three attribute chases per translation.
        self._tlb_get = tlb.entries.get
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
    ) -> int:
        """Translate ``vpn`` through a single page table.

        Returns the target frame.  On a miss or permission violation it
        charges the walk, leaves the :class:`PageFault` in
        :attr:`fault` and returns -1.  The entry comes from the
        leaf-table index, else from :meth:`PageTable.locate`; one check
        and one fill serve both, 2 MiB entries included.
        """
        akey = asid.key
        frame = self._tlb_get((akey << KEY_SHIFT) | vpn)
        if frame is not None:
            self._tlb_stats.hits += 1
            # ``tlb_hit`` is validated non-negative, so it is added to
            # the clock directly (no ``Clock.advance`` guard).
            clock.now += self._hit_ns
            # A hit is trusted without a permission check; ROADMAP item 1
            # tracks the downgrade paths that leave a stale entry.
            return frame
        if self.tlb.huge_entries:
            frame = self._tlb_get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
            if frame is not None:
                self._tlb_stats.hits += 1
                clock.now += self._hit_ns
                return frame + (vpn % HUGE_SPAN)
        self._tlb_stats.misses += 1
        # Full depth wherever the walk ended (the difference is below
        # our cost resolution).
        clock.now += pt.levels * self._step_1d_ns
        hit = pt.leaves.get((vpn >> LEVEL_BITS) & pt.leaf_key_mask)
        if hit is not None:
            node = hit[0]
            pte = node.entries.get(vpn & _INDEX_MASK)
        else:
            path, pte = pt.locate(vpn)
            node = path[-1]
        if pte is None:
            self.fault = page_fault(vpn, access, user, False, node.level)
            return -1
        # A write is decided (and marked dirty) in its own branch.
        if access is _WRITE:
            if not pte.writable or (user and not pte.user):
                self.fault = page_fault(vpn, access, user, True, node.level)
                return -1
            pte.dirty = True
        elif ((user and not pte.user)
                or (access is _EXECUTE and not pte.executable)):
            self.fault = page_fault(vpn, access, user, True, node.level)
            return -1
        pte.accessed = True
        if pte.huge:
            frame = pte.frame + vpn % HUGE_PAGE_PAGES
            self.tlb.insert_packed(akey, vpn, frame, True)
            return frame
        self.tlb.insert_packed(akey, vpn, pte.frame)
        return pte.frame

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

        The miss is one search per dimension: the guest table is read
        once, keeping only the frames of the nodes on the entry's path,
        then each of those frames (a node leg, a read) and the guest
        leaf frame (the leaf leg, with the real access) takes one EPT
        leg — with the checks, A/D updates, fault levels and charges of
        :meth:`PageTable.walk`.  Each dimension starts at its table's
        leaf-table index: a hit is one probe plus one entry read; only a
        missing leaf table or a 2 MiB entry takes :meth:`PageTable.locate`.

        The node legs of an indexed guest leaf table are memoized on its
        node (``ept_memo``): how many there were, valid while
        ``ept.stamp`` and ``ept.harvests`` are unchanged.  Node legs are
        reads, which only fail on a missing entry; only a removal (which
        bumps the stamp) takes an entry away, and only a clearing
        harvest clears the accessed bits they set.  So a hit charges the
        legs at full depth in one add and runs only the leaf leg, which
        is straight-line code.
        """
        akey = asid.key
        frame = self._tlb_get((akey << KEY_SHIFT) | vpn)
        if frame is not None:
            self._tlb_stats.hits += 1
            clock.now += self._hit_ns
            return frame
        if self.tlb.huge_entries:
            frame = self._tlb_get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
            if frame is not None:
                self._tlb_stats.hits += 1
                clock.now += self._hit_ns
                return frame + (vpn % HUGE_SPAN)
        self._tlb_stats.misses += 1
        # Guest dimension, charged at full depth wherever it stops.
        clock.now += gpt.levels * self._step_2d_ns
        # The guest's table pages live in guest-physical memory; hardware
        # translates each of them through the EPT during the nested walk.
        hit = gpt.leaves.get((vpn >> LEVEL_BITS) & gpt.leaf_key_mask)
        if hit is not None:
            node = hit[0]
            pte = node.entries.get(vpn & _INDEX_MASK)
        else:
            path, pte = gpt.locate(vpn)
            node = path[-1]
        if pte is None:
            self.fault = page_fault(vpn, access, user, False, node.level)
            return -1
        # A write is decided (and marked dirty) in its own branch.
        if access is _WRITE:
            if not pte.writable or (user and not pte.user):
                self.fault = page_fault(vpn, access, user, True, node.level)
                return -1
            pte.dirty = True
        elif ((user and not pte.user)
                or (access is _EXECUTE and not pte.executable)):
            self.fault = page_fault(vpn, access, user, True, node.level)
            return -1
        pte.accessed = True
        # Extended dimension: one leg per guest node frame (a read), then
        # the guest leaf frame with the real access.  Every leg is charged
        # at full depth, the faulting one included.
        leg_ns = ept.levels * self._step_1d_ns
        guest_huge = pte.huge
        if hit is None:
            gfn = pte.frame + vpn % HUGE_PAGE_PAGES if guest_huge else pte.frame
            frames = [n.frame for n in path]
        else:
            gfn = pte.frame
            memo = hit[0].ept_memo
            if (memo is not None and memo[0] == ept.stamp
                    and memo[1] == ept.harvests):
                # The memoized node legs (their entries are present and
                # still accessed) and the leaf leg, charged in one add.
                clock.now += (memo[2] + 1) * leg_ns
                frames = None
            else:
                frames = hit[2]
        if frames is not None:
            # Node legs are reads, which only a missing entry fails.
            for node_gfn in frames:
                clock.now += leg_ns
                leaf, level = _ept_entry(ept, node_gfn)
                if leaf is None:
                    self.fault = build_record(
                        EptViolation, (node_gfn << 12, _READ, level))
                    return -1
                leaf.accessed = True
            if hit is not None:
                hit[0].ept_memo = (ept.stamp, ept.harvests, len(frames))
            clock.now += leg_ns  # the leaf leg
        # The leaf leg: :func:`_ept_entry` inlined.
        hit = ept.leaves.get((gfn >> LEVEL_BITS) & ept.leaf_key_mask)
        if hit is not None:
            level = 1
            leaf = hit[0].entries.get(gfn & _INDEX_MASK)
        else:
            path, leaf = ept.locate(gfn)
            level = path[-1].level
        if leaf is None or not (
                leaf.writable if access is _WRITE
                else access is not _EXECUTE or leaf.executable):
            self.fault = build_record(EptViolation, (gfn << 12, access, level))
            return -1
        leaf.accessed = True
        if access is _WRITE:
            leaf.dirty = True
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

    # -- flush helpers --------------------------------------------------------

    def flush_page(self, clock: Clock, asid: Asid, vpn: int) -> int:
        """INVLPG one translation: a run of one :meth:`flush_pages`.
        Returns entries dropped (0 or 1)."""
        return self.flush_pages(clock, asid, (vpn,))

    def flush_pages(self, clock: Clock, asid: Asid, vpns) -> int:
        """INVLPG each page of a run (a sequence of vpns), in one call.

        Exactly ``len(vpns)`` single-page INVLPGs: each drops its page's
        entry as :meth:`Tlb.flush_pages` probes it, counts one ``page``
        flush and costs one ``tlb_flush_op``; the sanitizer checks every
        page.  An empty run counts and charges nothing.  Returns the
        entries dropped.
        """
        pages = len(vpns)
        if not pages:
            return 0
        tlb = self.tlb
        n = tlb.flush_pages(asid, vpns)
        self.events.tlb_flushes["page"] += pages
        clock.now += pages * self.costs.tlb_flush_op
        san = self.sanitizer
        if san is not None:
            for vpn in vpns:
                san.check_flush_page(tlb, asid, vpn)
        return n

    def flush_pcid(self, clock: Clock, asid: Asid) -> int:
        """Flush one (VPID, PCID) — the fine-grained flush PVM's PCID
        mapping makes possible for L2 processes."""
        n = self.tlb.flush_pcid(asid)
        self.events.tlb_flushes["pcid"] += 1
        clock.now += self.costs.tlb_flush_op
        san = self.sanitizer
        if san is not None:
            san.check_flush_pcid(self.tlb, asid)
        return n

    def flush_vpid(self, clock: Clock, vpid: int) -> int:
        """Flush a whole VM's translations — the coarse flush that makes
        un-mapped-PCID guests pay a cold-start penalty."""
        n = self.tlb.flush_vpid(vpid)
        self.events.tlb_flushes["vpid"] += 1
        clock.now += self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra
        san = self.sanitizer
        if san is not None:
            san.check_flush_vpid(self.tlb, vpid)
        return n

    def flush_all(self, clock: Clock) -> int:
        """Drop every cached translation."""
        n = self.tlb.flush_all()
        self.events.tlb_flushes["full"] += 1
        clock.now += self.costs.tlb_flush_op + self.costs.tlb_vpid_flush_extra
        san = self.sanitizer
        if san is not None:
            san.check_flush_all(self.tlb)
        return n

    def drop_vpid(self, vpid: int) -> int:
        """Remote-shootdown invalidation of one VM's translations.

        Unlike :meth:`flush_vpid` this charges no time and records no
        event on the *victim*: the initiator pays the IPI cost, while the
        remote CPU merely loses its cached state.
        """
        n = self.tlb.flush_vpid(vpid)
        san = self.sanitizer
        if san is not None:
            san.check_flush_vpid(self.tlb, vpid)
        return n


def _ept_entry(ept: PageTable, gfn: int) -> Tuple[Optional[Pte], int]:
    """The extended entry translating ``gfn`` and the level it sits at
    (2 for a 2 MiB entry), from the leaf-table index, else from
    :meth:`PageTable.locate`; the entry is None where the search stops
    at a missing entry."""
    hit = ept.leaves.get((gfn >> LEVEL_BITS) & ept.leaf_key_mask)
    if hit is not None:
        return hit[0].entries.get(gfn & _INDEX_MASK), 1
    path, entry = ept.locate(gfn)
    return entry, path[-1].level
