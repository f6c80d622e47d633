"""Paging-structure caches (PML4E / PDPTE / PDE caches).

Real MMUs cache the *intermediate* entries of recent page walks, so a
TLB miss rarely pays the full 4-level (or 4x4 nested) walk: the walker
probes the PDE cache first, then the PDPTE cache, then the PML4E cache,
and resumes the walk from the deepest hit (Intel SDM vol. 3 §4.10.3).
This module models that structure so the MMU can charge walks for only
the levels actually read.

Entries are tagged with the packed ASID (see
:func:`repro.hw.types.asid_key`), the identity (``uid``) of the
:class:`~repro.hw.pagetable.PageTable` they were filled from, the level
of the cached node, and the virtual-address prefix the node covers.
Correctness does not depend on flush discipline alone: cached node
references are validated against the table's ``epoch``, which advances
whenever table nodes are freed, so a stale node can never be resumed
even if a flush was missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.hw.pagetable import PageTable, PageTableNode
from repro.hw.types import LEVEL_BITS, PCID_BITS

#: Default number of cached intermediate entries, across all levels.
#: Real parts keep these tiny (tens of entries: Intel's PDE caches are
#: 32-ish entries); 64 covers several hot 2 MiB regions per process
#: without making the cache an unrealistic oracle.
DEFAULT_PSC_CAPACITY = 64

#: Bits reserved for the vpn-prefix tag in a packed PSC key.  A 57-bit
#: (LA57) vpn is 45 bits; one level of indexing always strips at least
#: :data:`LEVEL_BITS`, so 44 bits hold any prefix.
_TAG_BITS = 44
_TAG_MASK = (1 << _TAG_BITS) - 1
_AKEY_MASK = (1 << 32) - 1


@dataclass
class PscStats:
    """Hit/miss/flush counters, reset-able between benchmark phases."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    flushes: int = 0
    entries_flushed: int = 0

    @property
    def lookups(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes that hit."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Reset all counters/state."""
        for name in vars(self):
            setattr(self, name, 0)


class PagingStructureCache:
    """A capacity-bounded, FIFO-evicting cache of intermediate walk nodes.

    One instance lives per :class:`~repro.hw.mmu.Mmu` (per vCPU, like
    the TLB it sits next to) and is shared by every page table that vCPU
    walks — guest tables, shadow tables, and EPTs are distinguished by
    their ``uid`` tag, address spaces by their packed ASID.
    """

    __slots__ = ("capacity", "_entries", "stats")

    def __init__(self, capacity: int = DEFAULT_PSC_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # One packed int per entry -> (cached node, table epoch at fill
        # time).  The key, high bits to low: table uid, 32-bit packed
        # ASID, 2-bit level - 1, then the _TAG_BITS-wide vpn prefix.
        self._entries: Dict[int, Tuple[PageTableNode, int]] = {}
        self.stats = PscStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- probe / fill ------------------------------------------------------

    def lookup(self, pt: PageTable, akey: int, vpn: int) -> Optional[PageTableNode]:
        """Deepest cached node from which a walk of ``vpn`` can resume.

        Probes the level-1 (PDE) cache first, then level 2, then level 3
        — exactly the hardware's deepest-first probe order.  A hit whose
        table epoch is stale (nodes were freed since the fill) is
        discarded, never returned.
        """
        entries = self._entries
        base = ((pt.uid << 32) | akey) << 2
        epoch = pt.epoch
        for level in range(1, pt.levels):
            key = ((base | (level - 1)) << _TAG_BITS) | (vpn >> (level * LEVEL_BITS))
            hit = entries.get(key)
            if hit is not None:
                if hit[1] == epoch:
                    self.stats.hits += 1
                    return hit[0]
                del entries[key]
        self.stats.misses += 1
        return None

    def fill(
        self, pt: PageTable, akey: int, vpn: int, nodes: Tuple[PageTableNode, ...]
    ) -> None:
        """Cache the intermediate nodes visited by a successful walk.

        The root is never cached (CR3 already points at it); each
        lower-level node becomes one PML4E/PDPTE/PDE-cache entry.
        """
        entries = self._entries
        epoch = pt.epoch
        base = ((pt.uid << 32) | akey) << 2
        for node in nodes:
            level = node.level
            if level >= pt.levels:
                continue
            key = ((base | (level - 1)) << _TAG_BITS) | (vpn >> (level * LEVEL_BITS))
            if key not in entries:
                if len(entries) >= self.capacity:
                    del entries[next(iter(entries))]
                    self.stats.evictions += 1
                self.stats.insertions += 1
            entries[key] = (node, epoch)

    # -- invalidation ------------------------------------------------------

    def invalidate_page(self, akey: int, vpn: int) -> int:
        """INVLPG semantics: drop cached entries covering one page of one
        address space (the SDM requires INVLPG to flush paging-structure
        caches for the address).  Returns the number dropped."""
        victims = []
        for key in self._entries:
            if (key >> _TAG_BITS >> 2) & _AKEY_MASK != akey:
                continue
            level = ((key >> _TAG_BITS) & 3) + 1
            if key & _TAG_MASK == vpn >> (level * LEVEL_BITS):
                victims.append(key)
        for key in victims:
            del self._entries[key]
        self.stats.flushes += 1
        self.stats.entries_flushed += len(victims)
        return len(victims)

    def invalidate_asid(self, akey: int) -> int:
        """INVPCID semantics: drop one address space's cached entries."""
        victims = [
            key for key in self._entries
            if (key >> _TAG_BITS >> 2) & _AKEY_MASK == akey
        ]
        for key in victims:
            del self._entries[key]
        self.stats.flushes += 1
        self.stats.entries_flushed += len(victims)
        return len(victims)

    def invalidate_vpid(self, vpid: int) -> int:
        """INVVPID semantics: drop every cached entry of one VM."""
        victims = [
            key for key in self._entries
            if ((key >> _TAG_BITS >> 2) & _AKEY_MASK) >> PCID_BITS == vpid
        ]
        for key in victims:
            del self._entries[key]
        self.stats.flushes += 1
        self.stats.entries_flushed += len(victims)
        return len(victims)

    def clear(self) -> int:
        """Full flush (MOV-to-CR3 without PCID, or INVEPT global)."""
        n = len(self._entries)
        self._entries.clear()
        self.stats.flushes += 1
        self.stats.entries_flushed += n
        return n
