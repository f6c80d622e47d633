"""Translation lookaside buffer with hierarchical (VPID, PCID) tags.

The paper's PCID-mapping optimization (§3.3.2) exists because hardware
TLB flushes are hierarchical: a flush can target a single PCID, but a
guest without its own PCID window can only be flushed at the coarser
VPID granularity, wiping every process's entries.  This module models
exactly that hierarchy so the optimization's effect is emergent, not
assumed.

Entries are stored in one insertion-ordered dict keyed by packed ints
(``tagged-asid << 56 | vpn``); packing the (VPID, PCID) pair into the
key makes the hot-path lookup a single int hash instead of hashing a
tuple holding a frozen dataclass, which is where translation-bound
simulations spend their time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.hw.types import Asid, PCID_BITS


@dataclass
class TlbStats:
    """Hit/miss/flush counters, reset-able between benchmark phases."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes_full: int = 0
    flushes_vpid: int = 0
    flushes_pcid: int = 0
    flushes_page: int = 0
    #: Page-granular flushes that landed inside a 2 MiB entry's run and
    #: therefore dropped the whole huge entry (512 pages of reach lost
    #: to one INVLPG — the hidden cost of huge TLB entries).
    flushes_huge_demotions: int = 0
    entries_flushed: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Reset all counters/state."""
        for name in vars(self):
            setattr(self, name, 0)


@dataclass(slots=True)
class TlbEntry:
    """One cached translation (4K or 2 MiB)."""
    frame: int
    global_: bool = False
    huge: bool = False


#: Pages per huge TLB entry (2 MiB / 4 KiB).
HUGE_SPAN = 512

#: Key layout: ``(asid_key << 1 | huge?) << 56 | vpn``.  57-bit (LA57)
#: virtual addresses give 45-bit vpns; 56 bits of vpn space keeps the
#: packing future-proof without ever colliding tags.  The constants are
#: public because the MMU inlines the probe on its hot path.
KEY_SHIFT = 57
HUGE_TAG = 1 << 56  # placed just above the vpn field


def _key_akey(key: int) -> int:
    """Recover the packed ASID from an entry key."""
    return key >> KEY_SHIFT


class Tlb:
    """A capacity-bounded, FIFO-evicting TLB with 4K and 2M entries.

    4K entries are keyed by ``(asid, vpn)``; huge entries by
    ``(asid, vpn >> 9)`` and serve any page in their 2 MiB run — one
    entry of reach 512x, which is THP's TLB-pressure win.  Global
    entries (used for the PVM switcher, which the paper pins in the
    TLB) are only removed by a full flush.

    :attr:`huge_entries` is the exact number of 2 MiB entries cached.
    Every method that adds or drops an entry keeps it (the fill, the
    FIFO eviction and each flush), so a probe may skip the 2 MiB key
    while it is 0; the shadow sanitizer audits it in ``full`` mode.
    """

    __slots__ = ("capacity", "_entries", "stats", "huge_entries")

    def __init__(self, capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # The dict object is never rebound (flushes clear it in place):
        # the MMU aliases it to inline the hot-path probe.
        self._entries: Dict[int, TlbEntry] = {}
        self.stats = TlbStats()
        #: 2 MiB entries in ``_entries`` (keys with ``HUGE_TAG`` set).
        self.huge_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / fill ---------------------------------------------------

    def lookup(self, asid: Asid, vpn: int) -> Optional[int]:
        """Return the cached frame for (asid, vpn) or None on miss."""
        return self.lookup_packed(asid.key, vpn)

    def lookup_packed(self, akey: int, vpn: int) -> Optional[int]:
        """Hot-path lookup by pre-packed ASID key (see ``asid_key``);
        the 2 MiB key is probed only while 2 MiB entries are cached."""
        entries = self._entries
        entry = entries.get((akey << KEY_SHIFT) | vpn)
        if entry is not None:
            self.stats.hits += 1
            return entry.frame
        if self.huge_entries:
            entry = entries.get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
            if entry is not None:
                self.stats.hits += 1
                return entry.frame + (vpn % HUGE_SPAN)
        self.stats.misses += 1
        return None

    def insert(self, asid: Asid, vpn: int, frame: int, global_: bool = False,
               huge: bool = False) -> None:
        """Fill an entry, evicting the oldest non-global entry if full.

        For huge fills, ``vpn`` may be any page in the run and ``frame``
        its frame; the entry is normalized to the 2 MiB base.
        """
        self.insert_packed(asid.key, vpn, frame,
                           global_=global_, huge=huge)

    def insert_packed(self, akey: int, vpn: int, frame: int,
                      global_: bool = False, huge: bool = False) -> None:
        """Hot-path fill by pre-packed ASID key."""
        entries = self._entries
        if huge:
            key = (akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9)
            frame -= vpn % HUGE_SPAN
            if key not in entries:
                self.huge_entries += 1  # any eviction below is counted
        else:
            key = (akey << KEY_SHIFT) | vpn
        if key in entries:
            # Refresh: move to the back of the FIFO order.
            del entries[key]
        elif len(entries) >= self.capacity:
            self._evict_one()
        entries[key] = TlbEntry(frame, global_, huge)

    def _evict_one(self) -> None:
        entries = self._entries
        for key, entry in entries.items():
            if not entry.global_:
                break
        else:
            # Pathological: TLB full of global entries.  Evict oldest.
            key, entry = next(iter(entries.items()))
        del entries[key]
        if entry.huge:
            self.huge_entries -= 1
        self.stats.evictions += 1

    # -- flushes -----------------------------------------------------------

    def flush_all(self) -> int:
        """Drop everything, including global entries.  Returns count."""
        n = len(self._entries)
        self._entries.clear()
        self.huge_entries = 0
        self.stats.flushes_full += 1
        self.stats.entries_flushed += n
        return n

    def flush_vpid(self, vpid: int) -> int:
        """Drop all entries of one VM, all PCIDs — the coarse flush the
        paper's PCID mapping avoids.  Global entries survive."""
        entries = self._entries
        victims = [
            k for k, e in entries.items()
            if _key_akey(k) >> PCID_BITS == vpid and not e.global_
        ]
        self._drop(victims)
        self.stats.flushes_vpid += 1
        return len(victims)

    def flush_pcid(self, asid: Asid) -> int:
        """Drop one process's entries only (fine-grained flush)."""
        akey = asid.key
        entries = self._entries
        victims = [
            k for k, e in entries.items()
            if _key_akey(k) == akey and not e.global_
        ]
        self._drop(victims)
        self.stats.flushes_pcid += 1
        return len(victims)

    def _drop(self, keys) -> None:
        """Drop the entries of ``keys`` (a flush's victims), keeping
        :attr:`huge_entries` exact."""
        entries = self._entries
        huge = 0
        for key in keys:
            if entries.pop(key).huge:
                huge += 1
        self.huge_entries -= huge
        self.stats.entries_flushed += len(keys)

    def flush_page(self, asid: Asid, vpn: int) -> int:
        """INVLPG: drop the translation covering one page (a run of one
        :meth:`flush_pages`).  Returns the entries dropped (0 or 1)."""
        return self.flush_pages(asid, (vpn,))

    def flush_pages(self, asid: Asid, vpns: Iterable[int]) -> int:
        """INVLPG each page of a run: drop the translation covering it.

        Per page the 4K entry is probed first and a hit ends the probe;
        only a page with no 4K entry pops its covering 2 MiB entry, which
        drops the whole huge run (a demotion: 512 pages of reach lost to
        one INVLPG; experiments want this visible).  Returns the number
        of entries dropped, matching the count contract of the other
        ``flush_*`` methods.
        """
        pop = self._entries.pop
        key4k = asid.key << KEY_SHIFT
        keyhuge = key4k | HUGE_TAG
        pages = dropped = demotions = 0
        for vpn in vpns:
            pages += 1
            if pop(key4k | vpn, None) is not None:
                dropped += 1
            elif pop(keyhuge | (vpn >> 9), None) is not None:
                dropped += 1
                demotions += 1
        self.huge_entries -= demotions
        stats = self.stats
        stats.flushes_page += pages
        stats.flushes_huge_demotions += demotions
        stats.entries_flushed += dropped
        return dropped

    # -- inspection ---------------------------------------------------------

    def peek_packed(self, akey: int, vpn: int) -> Optional[int]:
        """Side-effect-free probe by pre-packed ASID key.

        Same resolution as :meth:`lookup_packed` (4K entry first, then
        the covering 2 MiB entry) but touches no hit/miss counters —
        this is the sanitizer's oracle probe, which must not perturb
        the statistics it is auditing.  It always probes both keys, so
        it does not trust the :attr:`huge_entries` count it audits.
        """
        entries = self._entries
        entry = entries.get((akey << KEY_SHIFT) | vpn)
        if entry is not None:
            return entry.frame
        entry = entries.get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
        if entry is not None:
            return entry.frame + (vpn % HUGE_SPAN)
        return None
