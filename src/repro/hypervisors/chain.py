"""The guest-memory chain: how a guest frame reaches a host frame.

Every machine backs guest RAM lazily through one :class:`MemoryChain`.
Its shape is the memory-virtualization axis of the deployment matrix:

* **one level** — guest frame -> host frame.  Bare-metal machines, and
  direct paging, whose guest frames *are* the L1 VM's frames;
* **two levels** — gfn2 -> gfn1 (the L1 VM's memslots for its L2 guest)
  -> host frame.  The nested machines that keep a separate L2 space.

Optionally the chain also owns a *warm* EPT01: the unmodified L0's
extended table below an L1 guest hypervisor, assumed filled long ago
(§2.2 footnote, §4.1), so violations on it are filled silently without
charging nested machinery.  Tables a machine *prices* (kvm-ept's EPT01,
EPT12/EPT02 on kvm-ept (NST)) stay with the machine; :func:`install_ept`,
:func:`install_huge_ept` and :meth:`MemoryChain.fill_ept` fill either kind.

The chain is the single owner of the backing maps, balloon discard
unwinding with its refault notes, eviction teardown, and a read-only
:meth:`peek` used by the sanitizers' reference walk.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.hw.events import EventLog
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageTable, Pte


def install_ept(ept: PageTable, gfn: int, target: int) -> int:
    """Map gfn -> target in an extended table, or upgrade an existing
    entry (permission upgrade or spurious) to writable in place; one
    descent either way.  Returns the levels written."""
    result = ept.ensure(gfn, Pte(frame=target, writable=True, user=False),
                        writable=True)
    return result.written_frames


def install_huge_ept(ept: PageTable, base: int, target: int) -> None:
    """Map the 2 MiB run at ``base`` -> ``target`` in an extended table
    with one huge entry, unless the run is already mapped."""
    ept.ensure(base, Pte(frame=target, writable=True, user=False, huge=True))


class MemoryChain:
    """Lazy guest -> [L1 ->] host backing for one machine."""

    def __init__(
        self,
        host_phys: PhysicalMemory,
        events: EventLog,
        l1_phys: Optional[PhysicalMemory] = None,
        warm_ept01: bool = False,
    ) -> None:
        self.host_phys = host_phys
        self.events = events
        #: The L1 VM's guest-physical space; set for two-level chains.
        self.l1_phys = l1_phys
        #: gfn2 -> gfn1 (two-level chains only).
        self._l1: Optional[Dict[int, int]] = {} if l1_phys is not None else None
        #: Bottom-level frame (gfn1, or the guest frame) -> host frame.
        self._host: Dict[int, int] = {}
        #: gfn1 bases of 2 MiB L1 blocks (for huge EPT01 warm fills).
        self._l1_huge_bases: Set[int] = set()
        #: Guest frames whose backing was discarded (ballooned) and not
        #: yet re-established; the next backing of one is a refault.
        self.discarded: Set[int] = set()
        #: EPT01 below an L1 guest hypervisor, filled silently.
        self.ept01 = (
            PageTable(host_phys, name="EPT01") if warm_ept01 else None
        )

    # -- lazy backing --------------------------------------------------------

    def backing_frame(self, frame: int) -> int:
        """Host frame backing a bottom-level frame (allocated lazily)."""
        hfn = self._host.get(frame)
        if hfn is None:
            hfn = self.host_phys.alloc_frame(tag="guest-ram")
            self._host[frame] = hfn
            if self.discarded and self._l1 is None:
                self._note_rebacked(frame)
        return hfn

    def backing_block(self, base: int) -> int:
        """Aligned 512-frame host block backing a bottom-level 2 MiB run."""
        hfn = self._host.get(base)
        if hfn is None:
            block = self.host_phys.alloc_aligned(HUGE_PAGE_PAGES,
                                                 tag="guest-ram-huge")
            for i in range(HUGE_PAGE_PAGES):
                self._host[base + i] = block.start + i
            hfn = block.start
        return hfn

    def gfn1_for(self, gfn2: int) -> int:
        """The gfn1 backing one gfn2 (allocated lazily)."""
        gfn1 = self._l1.get(gfn2)
        if gfn1 is None:
            gfn1 = self.l1_phys.alloc_frame(tag="l2-ram")
            self._l1[gfn2] = gfn1
            if self.discarded:
                self._note_rebacked(gfn2)
        return gfn1

    def gfn1_block_for(self, base2: int) -> int:
        """Aligned 512-frame gfn1 block backing a guest 2 MiB run."""
        gfn1 = self._l1.get(base2)
        if gfn1 is None:
            block = self.l1_phys.alloc_aligned(HUGE_PAGE_PAGES,
                                               tag="l2-ram-huge")
            for i in range(HUGE_PAGE_PAGES):
                self._l1[base2 + i] = block.start + i
            gfn1 = block.start
            self._l1_huge_bases.add(gfn1)
        return gfn1

    def target(self, gfn: int) -> int:
        """The frame one level below a guest frame: what a shadow entry
        for it names (gfn1 on two-level chains, else the host frame)."""
        if self._l1 is None:
            return self.backing_frame(gfn)
        return self.gfn1_for(gfn)

    def target_block(self, base: int) -> int:
        """:meth:`target` for a whole 2 MiB guest run."""
        if self._l1 is None:
            return self.backing_block(base)
        return self.gfn1_block_for(base)

    def fill_ept(self, ept: PageTable, frame: int,
                 huge_base: Optional[int]) -> int:
        """Fill the EPT entry for one bottom-level frame after a
        violation on it, backing it lazily; returns the levels written.

        When ``huge_base`` names the 2 MiB run holding the frame, the
        whole run is backed by one huge entry (one level), in one
        descent.  No entry covers a violating frame: extended entries
        are installed writable and executable and never downgraded, so
        only a missing entry faults.
        """
        if huge_base is not None:
            install_huge_ept(ept, huge_base, self.backing_block(huge_base))
            return 1
        return install_ept(ept, frame, self.backing_frame(frame))

    def warm_fill(self, gfn1: int) -> None:
        """Fill (or upgrade) the warm EPT01 entry for one L1 frame."""
        base = gfn1 - (gfn1 % HUGE_PAGE_PAGES)
        # L0's EPT backs 2 MiB L1 runs with huge entries, preserving the
        # guest-huge translation's TLB reach.
        self.fill_ept(self.ept01, gfn1,
                      base if base in self._l1_huge_bases else None)

    # -- read-only probes ------------------------------------------------------

    def peek_target(self, gfn: int) -> Optional[int]:
        """:meth:`target` without allocating (None when unbacked)."""
        if self._l1 is None:
            return self._host.get(gfn)
        return self._l1.get(gfn)

    def peek(self, gfn: int) -> Optional[int]:
        """Host frame backing a guest frame, or None; allocates nothing."""
        if self._l1 is not None:
            gfn = self._l1.get(gfn)
            if gfn is None:
                return None
        return self._host.get(gfn)

    def resident_pages(self) -> int:
        """Bottom-level frames currently backed by host frames."""
        return len(self._host)

    # -- release -----------------------------------------------------------------

    def discard(self, gfn: int) -> bool:
        """Drop the backing of one ballooned guest frame, unwinding every
        level (and the warm EPT01 entry).  Returns True when a host frame
        was released; the frame's next backing then counts a refault."""
        bottom = gfn if self._l1 is None else self._l1.get(gfn)
        if bottom is None:
            return False
        ept_pte = self.ept01.lookup(bottom) if self.ept01 is not None else None
        if ept_pte is not None and ept_pte.huge:
            return False  # never split a huge EPT01 run for one page
        if self._l1 is not None:
            del self._l1[gfn]
            self.l1_phys.free_frame(bottom)
        if ept_pte is not None:
            self.ept01.unmap(bottom)
        hfn = self._host.pop(bottom, None)
        if hfn is None:
            return False
        self.host_phys.free_frame(hfn)
        self.discarded.add(gfn)
        return True

    def teardown(self) -> None:
        """Release every frame backing the guest (eviction path)."""
        if self.ept01 is not None:
            self.ept01.destroy()
        if self._l1 is not None:
            for gfn1 in self._l1.values():
                self.l1_phys.free_frame(gfn1)
            self._l1.clear()
        self._l1_huge_bases.clear()
        for hfn in self._host.values():
            self.host_phys.free_frame(hfn)
        self._host.clear()
        self.discarded.clear()

    def _note_rebacked(self, gfn: int) -> None:
        if gfn in self.discarded:
            self.discarded.discard(gfn)
            self.events.refaults["balloon"] += 1
