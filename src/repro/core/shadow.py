"""Shadow page tables: the one shadow core every shadow-paging machine uses.

PVM (paper §3.3.2) maintains **two** shadow tables per L2 process — one
for the guest user (v_ring3) and one for the guest kernel (v_ring0) —
simulating KPTI for L2 at the hypervisor level: the user table simply
never contains kernel mappings.  KVM's classic shadow MMU (kvm-spt, bare
metal and nested) keeps a single table per process.  Synchronization
with the guest's table uses write protection: the GPT is read-only to
the guest, every guest PTE write traps, and the hypervisor applies it
to the shadow side.  Lock costs are charged by each machine.

A reverse map (gfn -> shadow entries) makes invalidation by guest frame
O(entries-for-frame) instead of O(table) — one of the three data groups
the fine-grained locks protect.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.guest.process import Process
from repro.hw.costs import CostModel
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import build_record


class SyncResult(NamedTuple):
    """Outcome of synchronizing one guest PTE into the shadow side."""

    vpn: int
    #: Total shadow entry writes across the dual tables.
    entry_writes: int
    #: True when new shadow table pages had to be allocated (structural
    #: change -> needs the meta lock under the fine-grained regime).
    structural: bool
    target_frame: int


class ShadowManager:
    """Per-process shadow tables (one or two halves) + reverse maps."""

    def __init__(
        self,
        table_phys: PhysicalMemory,
        costs: CostModel,
        translate_gfn: Callable[[int], int],
        dual: bool = True,
        translate_block: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.table_phys = table_phys
        self.costs = costs
        self.translate_gfn = translate_gfn
        #: Block translation for 2 MiB guest mappings: base gfn -> an
        #: aligned, contiguous 512-frame target base.  When absent, huge
        #: guest entries are shadowed as huge only if per-frame
        #: translation happens to preserve contiguity (it usually does
        #: not), so machines that support THP must provide this.
        self.translate_block = translate_block
        #: The halves a user-page sync updates: user + kernel per
        #: process, else the user one.
        self._halves = ("user", "kernel") if dual else ("user",)
        #: (pid, half) -> shadow table; half is "user" or "kernel".  The
        #: dict is never rebound, and ``Machine.touch`` reads the user
        #: half from it directly.
        self.tables: Dict[Tuple[int, str], PageTable] = {}
        #: gfn -> set of (pid, half, vpn) shadow entries mapping it.
        self._rmap: Dict[int, Set[Tuple[int, str, int]]] = {}
        #: Frames of guest page-table pages currently write-protected.
        self.write_protected_frames: Set[int] = set()
        #: pid -> the GPT's (uid, node_allocations, epoch) at its last
        #: scan into ``write_protected_frames``; cleared with that set.
        self._wp_stamps: Dict[int, Tuple[int, int, int]] = {}
        #: target frame -> guest frame (inverse of translate_gfn, filled
        #: on sync so rmap maintenance on unmap is O(1)).
        self._inverse: Dict[int, int] = {}
        self.rmap_invalidations = 0

    # -- table access -------------------------------------------------------

    def spt(self, proc: Process, half: str = "user") -> PageTable:
        """The process's shadow table for one half (created on demand)."""
        key = (proc.pid, half)
        table = self.tables.get(key)
        if table is None:
            if half not in ("user", "kernel"):
                raise ValueError(f"half must be user|kernel, got {half!r}")
            table = PageTable(self.table_phys, name=f"SPT12:{proc.pid}:{half}")
            self.tables[key] = table
        return table

    def halves(self, proc: Process) -> List[str]:
        """Which shadow tables a user-page sync must update."""
        return list(self._halves)

    def tables_for(self, proc: Process) -> List[PageTable]:
        """The process's *existing* shadow tables (no creation).

        Working-set estimation harvests accessed bits from whatever
        tables the hardware actually walked; materializing empty ones
        here would charge table-page allocations to a read-only scan.
        """
        tables = []
        for half in ("user", "kernel"):
            table = self.tables.get((proc.pid, half))
            if table is not None:
                tables.append(table)
        return tables

    # -- write protection ---------------------------------------------------------

    def write_protect_gpt(self, proc: Process) -> int:
        """(Re-)write-protect all of a process's guest table frames.

        Returns the number of frames newly protected.  Called when a
        process comes under shadow management; new table nodes are added
        by :meth:`note_gpt_growth` as the guest table grows.
        """
        gpt = proc.gpt
        self._wp_stamps[proc.pid] = (gpt.uid, gpt.node_allocations, gpt.epoch)
        frames = set(gpt.node_frames())
        new = frames - self.write_protected_frames
        self.write_protected_frames |= new
        return len(new)

    def note_gpt_growth(self, proc: Process) -> None:
        """Write-protect any newly-allocated guest table frames.

        The rescan is skipped while the GPT's ``(uid, node_allocations,
        epoch)`` stamp is the one of this process's last scan: the set of
        table frames only changes when nodes are allocated or freed, and
        either moves the stamp, so the skip is exact.
        """
        gpt = proc.gpt
        if self._wp_stamps.get(proc.pid) != (gpt.uid, gpt.node_allocations,
                                             gpt.epoch):
            self.write_protect_gpt(proc)

    # -- synchronization --------------------------------------------------------------

    def sync(self, proc: Process, vpn: int, gpt_pte: Pte) -> SyncResult:
        """Install/refresh the shadow entries for one guest PTE.

        Performs the real table updates in both halves (under KPTI) and
        maintains the reverse map.  Lock costs are charged by the caller
        through :class:`~repro.core.sptlocks.SptLockManager` — this
        method is pure mechanism.
        """
        if gpt_pte.huge:
            if self.translate_block is None:
                raise ValueError(
                    "huge guest mapping but no block translator configured"
                )
            target = self.translate_block(gpt_pte.frame)
        else:
            target = self.translate_gfn(gpt_pte.frame)
        self._inverse[target] = gpt_pte.frame
        writes = 0
        structural = False
        pid = proc.pid
        tables = self.tables
        writable = gpt_pte.writable
        executable = gpt_pte.executable
        rmap_entries = self._rmap.get(gpt_pte.frame)
        if rmap_entries is None:
            rmap_entries = self._rmap[gpt_pte.frame] = set()
        for half in self._halves:
            table = tables.get((pid, half))
            if table is None:
                table = self.spt(proc, half)
            # Positional: frame, writable, user, executable (a keyword
            # call to a class builds a dict per entry).
            spte = Pte(target, writable, half == "user", executable)
            if gpt_pte.huge:
                spte.huge = True
            # New entries are mapped; an existing one is retargeted and
            # its write permission refreshed — one descent either way.
            result = table.ensure(vpn, spte, frame=target, writable=writable)
            writes += result.written_frames
            if result.allocated_levels:
                structural = True
            rmap_entries.add((pid, half, vpn))
        return build_record(SyncResult, (vpn, writes, structural, target))

    def unmap(self, proc: Process, vpn: int) -> int:
        """Drop the shadow entries covering ``vpn``; returns how many
        halves lost one (see :meth:`unmap_pages`)."""
        return self.unmap_pages(proc, (vpn,)).get(vpn, 0)

    def unmap_pages(self, proc: Process, vpns: Iterable[int]) -> Dict[int, int]:
        """Drop the shadow entries covering each of ``vpns`` (ascending).

        Returns vpn -> halves that lost an entry, for the vpns that lost
        any.  For a huge shadow entry only the (aligned) base unmaps it;
        other vpns inside the run are no-ops.  Each half visits each
        leaf table once (:meth:`PageTable.unmap_each`).
        """
        vpns = tuple(vpns)
        removed: Dict[int, int] = {}
        pid = proc.pid
        rmap_get = self._rmap.get
        inverse_get = self._inverse.get
        for half in ("user", "kernel"):
            table = self.tables.get((pid, half))
            if table is None:
                continue

            def drop_rmap(vpn: int, pte: Pte, half: str = half) -> None:
                frame = pte.frame  # :meth:`_rmap_gfn_of`, inlined
                entries = rmap_get(inverse_get(frame, frame))
                if entries is not None:
                    entries.discard((pid, half, vpn))
                removed[vpn] = removed.get(vpn, 0) + 1

            table.unmap_each(vpns, drop_rmap)
        return removed

    def lookup(self, proc: Process, vpn: int, half: str = "user") -> Optional[Pte]:
        """Current mapping state without faulting (None when absent)."""
        table = self.tables.get((proc.pid, half))
        return table.lookup(vpn) if table is not None else None

    def coherence_error(
        self, proc: Process, vpn: int, gpt_pte: Pte, target: int
    ) -> Optional[str]:
        """Audit the shadow entries for one guest PTE (sanitizer oracle).

        Read-only: compares every half's shadow entry against the guest
        PTE and the expected ``target`` frame, returning a description
        of the first incoherence or ``None`` when everything agrees.
        Charges nothing and mutates nothing.
        """
        for half in self.halves(proc):
            pte = self.lookup(proc, vpn, half)
            if pte is None:
                return f"{half}-half shadow entry missing"
            if pte.huge != gpt_pte.huge:
                return (f"{half}-half page-size mismatch "
                        f"(shadow huge={pte.huge}, guest huge={gpt_pte.huge})")
            if pte.frame != target:
                return (f"{half}-half shadow target {pte.frame:#x} != "
                        f"expected {target:#x}")
            if pte.writable and not gpt_pte.writable:
                return f"{half}-half shadow writable but guest PTE read-only"
        return None

    # -- reverse-map operations -----------------------------------------------------------

    def entries_for_gfn(self, gfn: int) -> Set[Tuple[int, str, int]]:
        """Reverse map: shadow entries that map one guest frame."""
        return set(self._rmap.get(gfn, ()))

    def downgrade_gfn(self, gfn: int, processes: Dict[int, Process]) -> int:
        """Make every shadow entry of ``gfn`` read-only (COW downgrade).

        The rmap turns this from a table scan into a direct walk of the
        affected entries.  Returns entries touched.
        """
        touched = 0
        for pid, half, vpn in self.entries_for_gfn(gfn):
            table = self.tables.get((pid, half))
            if table is None or table.lookup(vpn) is None:
                continue
            table.protect(vpn, writable=False)
            touched += 1
        self.rmap_invalidations += touched
        return touched

    # -- lifecycle --------------------------------------------------------------------------

    def drop_all(self) -> int:
        """Release every shadow table at once (guest eviction)."""
        dropped = 0
        for table in self.tables.values():
            dropped += table.mapped_pages
            table.release()
        self.tables.clear()
        self._rmap.clear()
        self._inverse.clear()
        self.write_protected_frames.clear()
        self._wp_stamps.clear()
        return dropped

    def drop(self, proc: Process) -> int:
        """Release all shadow state of a process (exec/exit); returns the
        shadow entries dropped.  Each table goes in one pass
        (:meth:`PageTable.drain`, then :meth:`PageTable.release`),
        freeing its frames in the page-by-page order."""
        dropped = 0
        for half in ("user", "kernel"):
            table = self.tables.pop((proc.pid, half), None)
            if table is None:
                continue

            def forget(vpn: int, pte: Pte, half: str = half) -> None:
                entries = self._rmap.get(self._rmap_gfn_of(pte))
                if entries is not None:
                    entries.discard((proc.pid, half, vpn))

            dropped += table.drain(forget)
            table.release()
        return dropped

    # -- internals -----------------------------------------------------------------------------

    def _rmap_gfn_of(self, shadow_pte: Pte) -> int:
        # The rmap is keyed by *guest* frame; shadow PTEs store the
        # translated target.  The inverse map is filled on every sync,
        # so this is a plain lookup (identity as a safe fallback).
        return self._inverse.get(shadow_pte.frame, shadow_pte.frame)
