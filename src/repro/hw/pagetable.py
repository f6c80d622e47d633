"""Four-level radix page tables.

Every address space in the system — L2 guest page tables (GPT2), L1 page
tables (GPT1), shadow page tables (SPT12), and extended page tables
(EPT01/EPT12/EPT02) — is an instance of :class:`PageTable`.  The tree is
made of :class:`PageTableNode` objects, each backed by a real physical
frame from the owning level's memory, so that write-protecting "the guest
page table" (the mechanism shadow paging relies on) is expressible as
write-protecting a concrete set of frames.

Walks, maps and unmaps are genuine radix-tree operations; the number of
node allocations a ``map`` performs is exactly the ``n`` that appears in
the paper's world-switch formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.hw.memory import PhysicalMemory
from repro.hw.types import (
    ENTRIES_PER_TABLE,
    LEVEL_BITS,
    PT_LEVELS,
    AccessType,
    HardwareError,
    PageFault,
    PageFaultError,
    build_record,
)


#: Pages covered by one huge (2 MiB, level-2) mapping.
HUGE_PAGE_PAGES = 512

# The hot paths inline :func:`repro.hw.types.table_index`: the entry
# index at ``level`` is ``(vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK``.
_INDEX_MASK = ENTRIES_PER_TABLE - 1

_WRITE = AccessType.WRITE
_EXECUTE = AccessType.EXECUTE

#: Every :class:`PageFaultError` by its int value, so a fault's error
#: code is one tuple index instead of a chain of ``Flag.__or__`` calls.
_ERROR_CODES = tuple(
    PageFaultError(code)
    for code in range(sum(flag.value for flag in PageFaultError) + 1)
)
_PRESENT_BIT = PageFaultError.PRESENT.value
_WRITE_BIT = PageFaultError.WRITE.value
_USER_BIT = PageFaultError.USER.value
_FETCH_BIT = PageFaultError.FETCH.value

#: The :class:`Pte` fields :meth:`PageTable.protect` may change.
_PROTECTION_FLAGS = frozenset({"writable", "user", "executable", "global_"})

#: :attr:`PageTable.stamp` values of one table stay below the next
#: table's start (``uid << _STAMP_BITS``).
_STAMP_BITS = 40


@dataclass(slots=True)
class Pte:
    """A leaf page-table entry mapping one virtual page to one frame.

    With ``huge`` set the entry lives at level 2 and maps a 512-page
    (2 MiB) run starting at ``frame`` (frames must be contiguous).
    """

    frame: int
    writable: bool = True
    user: bool = True
    executable: bool = True
    global_: bool = False
    accessed: bool = False
    dirty: bool = False
    huge: bool = False

    def permits(self, access: AccessType, user: bool) -> bool:
        """Check whether this entry allows ``access`` from ``user`` mode."""
        if user and not self.user:
            return False
        if access is AccessType.WRITE and not self.writable:
            return False
        if access is AccessType.EXECUTE and not self.executable:
            return False
        return True

    def copy(self) -> "Pte":
        """Deep copy of this entry."""
        return Pte(
            frame=self.frame,
            writable=self.writable,
            user=self.user,
            executable=self.executable,
            global_=self.global_,
            accessed=self.accessed,
            dirty=self.dirty,
            huge=self.huge,
        )


class PageTableNode:
    """One table page of the radix tree, backed by a physical frame.

    ``ept_memo`` is only used on the level-1 nodes of tables the MMU
    walks nested over an extended table: ``(stamp, harvests, legs)``,
    the extended table's :attr:`PageTable.stamp` and
    :attr:`PageTable.harvests` when this node's root-down path was last
    walked over it, and the number of that path's node legs (see
    :meth:`Mmu.access_2d`).
    """

    __slots__ = ("level", "frame", "entries", "ept_memo")

    def __init__(self, level: int, frame: int) -> None:
        self.level = level
        self.frame = frame
        # Sparse storage: index -> child node (level > 1) or Pte (level 1).
        self.entries: Dict[int, object] = {}
        self.ept_memo: Optional[Tuple[int, int, int]] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PTNode L{self.level} frame={self.frame:#x} n={len(self.entries)}>"


class WalkResult:
    """Successful translation of a virtual page.

    ``nodes`` holds the table nodes visited, root first.
    """

    __slots__ = ("frame", "pte", "nodes", "huge")

    def __init__(
        self,
        frame: int,
        pte: Pte,
        nodes: Tuple["PageTableNode", ...],
        huge: bool = False,
    ) -> None:
        self.frame = frame
        self.pte = pte
        self.nodes = nodes
        self.huge = huge


class MapResult(NamedTuple):
    """Outcome of a map operation (an immutable record).

    ``allocated_levels`` counts the new table nodes the install had to
    allocate (one per level below the deepest existing node): the
    "number of page table levels" updated — the ``n`` of the paper's
    fault-path formulas.
    """

    pte: Pte
    allocated_levels: int
    #: Table entries written while installing the mapping: one per
    #: allocated node (linking it into its parent) plus the entries
    #: written in the bottom node.  Each is a write-protect trap under
    #: shadow paging.
    written_frames: int


class PageTable:
    """A 4-level radix page table over an abstract physical memory.

    Parameters
    ----------
    phys:
        The physical memory from which table nodes are allocated.
    name:
        Debugging/accounting label (``"GPT2"``, ``"SPT12:user"``, ...).
    levels:
        Tree depth; always 4 in this reproduction but parameterized so
        tests can exercise the level-dependent formulas.
    """

    #: Monotonic source of table identities (see :attr:`uid`).
    _next_uid = 0

    def __init__(
        self,
        phys: PhysicalMemory,
        name: str = "pt",
        levels: int = PT_LEVELS,
    ) -> None:
        if not 1 <= levels <= PT_LEVELS:
            raise ValueError(f"levels must be in 1..{PT_LEVELS}, got {levels}")
        self.phys = phys
        self.name = name
        self.levels = levels
        #: Allocation tag of this table's node frames.
        self._tag = f"pt:{name}"
        #: Identity of this table instance: it seeds :attr:`stamp`, and
        #: shadow paging's write-protect stamp includes it, so one
        #: table's stamp never matches another's.
        self.uid = PageTable._next_uid
        PageTable._next_uid += 1
        #: Bumped whenever table nodes are freed (unmap pruning, drain,
        #: destroy, release); with :attr:`node_allocations` it tells
        #: shadow paging when the set of table frames changed.
        self.epoch = 0
        self.root = PageTableNode(levels, phys.alloc_frame(tag=self._tag))
        #: Leaf-table index: for every attached level-1 node, its key
        #: ``(vpn >> 9) & leaf_key_mask`` maps to ``(node, nodes, frames)``
        #: — the node, the nodes from the root down to it and their
        #: frames.  Exact, not a cache: :meth:`_descend` inserts when it
        #: allocates a level-1 node, :meth:`_prune` deletes when it frees
        #: one, and :meth:`destroy`/:meth:`release` clear it.  The mask
        #: keeps the table's upper-level index bits, so vpns that alias
        #: in the tree share a key.  A 1-level table has no entries.
        self.leaves: Dict[int, Tuple[PageTableNode,
                                     Tuple[PageTableNode, ...],
                                     Tuple[int, ...]]] = {}
        self.leaf_key_mask = (1 << (levels - 1) * LEVEL_BITS) - 1
        #: Total leaf mappings currently installed.
        self.mapped_pages = 0
        #: Monotonic counters for tests/accounting.
        self.node_allocations = 1
        self.entry_writes = 0
        #: Presence stamp: bumped by every entry removal and by
        #: :meth:`destroy`/:meth:`release`, and unique across tables
        #: (each counts up from ``uid << 40``).  While it is unchanged,
        #: every entry seen earlier is still in the table — installs
        #: only add entries, and permission and frame updates change the
        #: same :class:`Pte` in place — so :meth:`Mmu.access_2d`
        #: validates its guest-path memos with it.
        self.stamp = self.uid << _STAMP_BITS
        #: Clearing :meth:`harvest_accessed` scans so far: the only way
        #: an accessed bit is ever cleared.  While it and :attr:`stamp`
        #: are unchanged, every entry seen accessed still is.
        self.harvests = 0

    # -- structure -----------------------------------------------------

    def node_frames(self) -> List[int]:
        """Frames of all table nodes (for write-protecting a whole GPT)."""
        frames: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            frames.append(node.frame)
            if node.level > 1:
                stack.extend(
                    child for child in node.entries.values()
                    if isinstance(child, PageTableNode)
                )
        return frames

    # -- mapping -------------------------------------------------------

    def map(self, vpn: int, pte: Pte) -> MapResult:
        """Install ``pte`` for virtual page ``vpn``, growing the tree.

        Raises :class:`HardwareError` if the page is already mapped;
        callers must unmap first (matching how kernels treat PTE reuse).
        """
        # :meth:`_descend`'s leaf-table probe, inlined for the common hit.
        hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
        if hit is not None:
            node, allocated = hit[0], 0
        else:
            node, allocated = self._descend(vpn, 1)
        idx = vpn & _INDEX_MASK
        entries = node.entries
        if node.level != 1 or idx in entries:
            raise HardwareError(f"{self.name}: vpn {vpn:#x} already mapped")
        entries[idx] = pte  # :meth:`_write_entry` of an install, inlined
        self.entry_writes += 1
        self.mapped_pages += 1
        return build_record(MapResult, (pte, allocated, allocated + 1))

    def map_huge(self, vpn_base: int, pte: Pte) -> MapResult:
        """Install one 2 MiB mapping at a 512-page-aligned base.

        A single entry write covers 512 pages — the page-table-churn
        reduction THP provides.
        """
        self._check_huge_base(vpn_base)
        pte.huge = True
        node, allocated = self._descend(vpn_base, 2)
        idx = (vpn_base >> LEVEL_BITS) & _INDEX_MASK
        if idx in node.entries:
            raise HardwareError(
                f"{self.name}: level-2 slot for {vpn_base:#x} already used"
            )
        self._write_entry(node, idx, pte)
        self.mapped_pages += HUGE_PAGE_PAGES
        return MapResult(pte, allocated, allocated + 1)

    def unmap_huge(self, vpn_base: int) -> Pte:
        """Remove a 2 MiB mapping; returns its PTE."""
        if vpn_base % HUGE_PAGE_PAGES:
            raise ValueError(f"huge base {vpn_base:#x} not aligned")
        node = self.root
        nodes = [node]
        for level in range(self.levels, 2, -1):
            child = node.entries.get(
                (vpn_base >> (level - 1) * LEVEL_BITS) & _INDEX_MASK)
            if type(child) is not PageTableNode:
                raise HardwareError(f"{self.name}: {vpn_base:#x} not huge-mapped")
            node = child
            nodes.append(node)
        idx = (vpn_base >> LEVEL_BITS) & _INDEX_MASK
        pte = node.entries.get(idx)
        if type(pte) is not Pte or not pte.huge:
            raise HardwareError(f"{self.name}: {vpn_base:#x} not huge-mapped")
        self._write_entry(node, idx, None)
        self.mapped_pages -= HUGE_PAGE_PAGES
        self._prune(vpn_base, nodes)
        return pte

    def split_huge(self, vpn_base: int) -> MapResult:
        """Split a 2 MiB mapping into 512 base mappings (THP split).

        Allocates the leaf table and writes all 512 entries — the
        page-table churn COW-on-fork forces onto huge pages.
        """
        pte = self.unmap_huge(vpn_base)
        node, allocated = self._descend(vpn_base, 1)
        # The base is 512-aligned, so page i of the run sits at index i.
        for i in range(HUGE_PAGE_PAGES):
            small = pte.copy()
            small.huge = False
            small.frame = pte.frame + i
            self._write_entry(node, i, small)
        self.mapped_pages += HUGE_PAGE_PAGES
        return MapResult(pte, allocated, allocated + HUGE_PAGE_PAGES)

    def ensure(self, vpn: int, pte: Pte, **flags) -> MapResult:
        """:meth:`lookup`, then :meth:`protect` or :meth:`map`, in one descent.

        When an entry already covers ``vpn`` (a 2 MiB one included),
        ``flags`` — ``frame`` or :meth:`protect`'s flags — are applied to
        it in place with one entry write (none without flags), and the
        result names that entry with no allocations.  Otherwise ``pte``
        is installed as :meth:`map` would, or as :meth:`map_huge` would
        at ``vpn`` when ``pte.huge``.
        """
        bottom = 1
        if pte.huge:
            self._check_huge_base(vpn)
            bottom = 2
            node, allocated = self._descend(vpn, 2)
        else:
            # :meth:`_descend`'s leaf-table probe, inlined for the
            # common hit.
            hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
            if hit is not None:
                node, allocated = hit[0], 0
            else:
                node, allocated = self._descend(vpn, 1)
        if node.level != bottom:  # a 2 MiB entry covers vpn
            idx = (vpn >> LEVEL_BITS) & _INDEX_MASK
            return self._update(node, idx, node.entries[idx], flags)
        idx = (vpn >> (bottom - 1) * LEVEL_BITS) & _INDEX_MASK
        entries = node.entries
        entry = entries.get(idx)
        if entry is None:
            entries[idx] = pte  # :meth:`_write_entry` of an install, inlined
            self.entry_writes += 1
            self.mapped_pages += HUGE_PAGE_PAGES if pte.huge else 1
            return build_record(MapResult, (pte, allocated, allocated + 1))
        if type(entry) is PageTableNode:
            # A 2 MiB install over a leaf table: the base entry decides.
            node, idx = entry, vpn & _INDEX_MASK
            entry = node.entries.get(idx)
            if entry is None:
                raise HardwareError(
                    f"{self.name}: level-2 slot for {vpn:#x} already used")
        return self._update(node, idx, entry, flags)

    def unmap(self, vpn: int) -> Pte:
        """Remove the mapping for ``vpn`` and return its old PTE.

        Empty intermediate nodes are freed eagerly so that long-running
        simulations do not leak table frames.
        """
        hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
        if hit is not None:
            node, nodes, _ = hit
        else:  # no leaf table: only a 1-level table's root maps vpn
            node = self.root
            nodes = (node,)
            if node.level != 1:
                raise HardwareError(f"{self.name}: vpn {vpn:#x} not mapped")
        idx = vpn & _INDEX_MASK
        pte = node.entries.get(idx)
        if pte is None:
            raise HardwareError(f"{self.name}: vpn {vpn:#x} not mapped")
        self._write_entry(node, idx, None)
        self.mapped_pages -= 1
        if not node.entries:
            self._prune(vpn, nodes)
        return pte

    def unmap_each(self, vpns: Iterable[int],
                   on_unmap: Callable[[int, Pte], None]) -> None:
        """Unmap the mapping at each of ``vpns`` that has one, calling
        ``on_unmap(vpn, old pte)`` right after its removal.

        A 2 MiB entry is removed only at its base vpn; the other vpns of
        its run are passed over.  Consecutive vpns of one leaf table
        share one descent.  Entry writes, prunes and frees happen as
        :meth:`unmap`/:meth:`unmap_huge` would do them page by page, so
        ``on_unmap`` may free the old frame in between; it must not
        change this table.
        """
        leaves = self.leaves
        key_mask = self.leaf_key_mask
        leaf: Optional[PageTableNode] = None
        leaf_key = -1
        nodes: Tuple[PageTableNode, ...] = ()
        for vpn in vpns:
            key = vpn >> LEVEL_BITS
            if key != leaf_key:
                leaf_key = key
                hit = leaves.get(key & key_mask)
                if hit is not None:
                    leaf, nodes, _ = hit
                elif self.root.level == 1:
                    leaf = self.root
                    nodes = (leaf,)
                else:
                    leaf = None
                    node = self.root
                    path = [node]
                    for level in range(self.levels, 2, -1):
                        node = node.entries.get(
                            (vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK)
                        if type(node) is not PageTableNode:
                            break
                        path.append(node)
                    else:
                        # No leaf table: at most a 2 MiB entry covers vpn.
                        idx = key & _INDEX_MASK
                        pte = node.entries.get(idx)
                        if pte is not None:
                            if vpn & _INDEX_MASK:
                                leaf_key = -1  # only the base unmaps the run
                                continue
                            self._write_entry(node, idx, None)
                            self.mapped_pages -= HUGE_PAGE_PAGES
                            self._prune(vpn, path)
                            on_unmap(vpn, pte)
                    continue
            elif leaf is None:
                continue
            entries = leaf.entries
            pte = entries.pop(vpn & _INDEX_MASK, None)
            if pte is None:
                continue
            # :meth:`_write_entry` of a removal, inlined: the stamp moves.
            self.stamp += 1
            self.entry_writes += 1
            self.mapped_pages -= 1
            if not entries:
                self._prune(vpn, nodes)
                leaf = None
            on_unmap(vpn, pte)

    def protect(self, vpn: int, **flags: bool) -> Pte:
        """Update permission flags of an existing mapping in place.

        Accepts only the permission flags of :class:`Pte` (``writable``,
        ``user``, ``executable``, ``global_``); any other keyword raises
        :class:`ValueError` before the entry is touched.  Returns the
        updated PTE.
        """
        unknown = flags.keys() - _PROTECTION_FLAGS
        if unknown:
            raise ValueError(f"not a PTE protection flag: {sorted(unknown)}")
        found = self._leaf_of(vpn)
        if found is None:
            raise HardwareError(f"{self.name}: vpn {vpn:#x} not mapped")
        node, idx, pte = found
        for key, value in flags.items():
            setattr(pte, key, value)
        # A protection change is an entry write (the guest kernel writes
        # the PTE in place).
        self._write_entry(node, idx, pte)
        return pte

    def protect_range(self, start: int, end: int, **flags: bool) -> int:
        """:meth:`protect` every mapping met scanning ``[start, end)``,
        one descent per mapped page; returns the entries written.

        A 2 MiB entry is written once, at the vpn where the scan meets
        it, and the scan resumes 512 pages further on.
        """
        unknown = flags.keys() - _PROTECTION_FLAGS
        if unknown:
            raise ValueError(f"not a PTE protection flag: {sorted(unknown)}")
        writes = 0
        vpn = start
        while vpn < end:
            found = self._leaf_of(vpn)
            if found is None:
                vpn += 1
                continue
            node, idx, pte = found
            for key, value in flags.items():
                setattr(pte, key, value)
            self._write_entry(node, idx, pte)
            writes += 1
            vpn += HUGE_PAGE_PAGES if pte.huge else 1
        return writes

    def lookup(self, vpn: int) -> Optional[Pte]:
        """Return the PTE covering ``vpn`` without faulting, or None.

        For a huge mapping, the (shared) huge PTE is returned for any
        vpn inside its 2 MiB run.
        """
        hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
        if hit is not None:
            return hit[0].entries.get(vpn & _INDEX_MASK)
        node = self.root
        for level in range(self.levels, 1, -1):
            child = node.entries.get((vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK)
            if type(child) is not PageTableNode:
                if child is not None and child.huge and level == 2:
                    return child
                return None
            node = child
        return node.entries.get(vpn & _INDEX_MASK)

    # -- walking -------------------------------------------------------

    def walk(
        self,
        vpn: int,
        access: AccessType,
        user: bool,
        start: Optional[PageTableNode] = None,
    ) -> Union[WalkResult, PageFault]:
        """Translate ``vpn``: a :class:`WalkResult` on success, else the
        :class:`PageFault` descriptor (callers test ``type(r) is
        PageFault``; nothing is raised).

        The fault records the level at which the walk stopped, which the
        fault handlers use to size their fix-up work.

        By default the walk starts at the leaf-table index; passing
        ``start=self.root`` walks every level from the root instead
        (the MMU does after an index miss, and the leaf-index
        properties use it as their reference).
        """
        hit = (self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
               if start is None else None)
        if hit is not None:
            node, nodes, _ = hit
        else:
            node = self.root if start is None else start
            path: List[PageTableNode] = [node]
            level = node.level
            while level > 1:
                child = node.entries.get(
                    (vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK)
                if type(child) is not PageTableNode:
                    if child is not None and child.huge and level == 2:
                        if ((user and not child.user)
                                or (access is _WRITE and not child.writable)
                                or (access is _EXECUTE
                                    and not child.executable)):
                            return page_fault(vpn, access, user,
                                              present=True, level=2)
                        child.accessed = True
                        if access is _WRITE:
                            child.dirty = True
                        return WalkResult(
                            frame=child.frame + vpn % HUGE_PAGE_PAGES,
                            pte=child, nodes=tuple(path), huge=True,
                        )
                    return page_fault(vpn, access, user, present=False,
                                      level=level)
                node = child
                path.append(node)
                level -= 1
            nodes = tuple(path)
        pte = node.entries.get(vpn & _INDEX_MASK)
        if pte is None:
            return page_fault(vpn, access, user, present=False, level=1)
        if ((user and not pte.user)
                or (access is _WRITE and not pte.writable)
                or (access is _EXECUTE and not pte.executable)):
            return page_fault(vpn, access, user, present=True, level=1)
        pte.accessed = True
        if access is _WRITE:
            pte.dirty = True
        return WalkResult(frame=pte.frame, pte=pte, nodes=nodes)

    # -- accessed-bit harvesting ----------------------------------------

    def harvest_accessed(self, clear: bool = True) -> Tuple[int, int]:
        """Scan every leaf entry's accessed bit; optionally clear it.

        Returns ``(accessed_pages, scanned_entries)`` where huge entries
        contribute 512 accessed pages but one scanned entry (the scan
        reads one PTE either way).  Clearing writes the A-bit in place
        the same way the hardware walker sets it — directly, not as an
        entry write — since A/D updates are not guest-visible PTE stores
        and must not trip write protection.
        """
        accessed_pages = 0
        scanned = 0
        if clear:
            self.harvests += 1
        for _vpn, pte in self.iter_mappings():
            scanned += 1
            if pte.accessed:
                accessed_pages += HUGE_PAGE_PAGES if pte.huge else 1
                if clear:
                    pte.accessed = False
                    pte.dirty = False
        return accessed_pages, scanned

    # -- iteration / teardown -------------------------------------------

    def iter_mappings(self) -> Iterator[Tuple[int, Pte]]:
        """Yield ``(vpn, pte)`` for all leaf mappings (ascending vpn)."""

        def rec(node: PageTableNode, prefix: int) -> Iterator[Tuple[int, Pte]]:
            """Depth-first walk of the subtree."""
            for idx in sorted(node.entries):
                entry = node.entries[idx]
                vpn_prefix = (prefix << 9) | idx
                if isinstance(entry, PageTableNode):
                    yield from rec(entry, vpn_prefix)
                elif isinstance(entry, Pte):
                    if entry.huge:
                        # Level-2 entry: the base vpn has one more level
                        # of index bits below it.
                        yield vpn_prefix << 9, entry
                    else:
                        yield vpn_prefix, entry

        yield from rec(self.root, 0)

    def destroy(self) -> None:
        """Bulk-clear: free every table frame, then rebuild an empty root.

        Leaf target frames are not freed — they belong to whoever
        allocated the data pages.
        """
        for frame in self.node_frames():
            self.phys.free_frame(frame)
        self.epoch += 1
        self.stamp += 1
        self.leaves.clear()
        self.root = PageTableNode(self.levels, self.phys.alloc_frame(tag=self._tag))
        self.node_allocations += 1
        self.mapped_pages = 0

    def release(self) -> None:
        """Final teardown: free every table frame including the root.

        The table is unusable afterwards; any access raises."""
        for frame in self.node_frames():
            self.phys.free_frame(frame)
        self.epoch += 1
        self.stamp += 1
        self.leaves.clear()
        self.root = PageTableNode(self.levels, frame=-1)
        self.mapped_pages = 0

    def drain(self, on_unmap: Callable[[int, Pte], None]) -> int:
        """:meth:`unmap` (or :meth:`unmap_huge`) of every mapping in
        ascending vpn order, in one pass; the root stays.  Returns the
        mappings removed.

        ``on_unmap(vpn, old pte)`` runs as page-by-page unmapping would
        have it run: right after the entry's removal, so a table node
        freed because its last entry went is freed before that entry's
        callback.  Nodes that never empty stay, as they would.  The
        pass visits each node once and writes no entries one by one,
        but leaves :attr:`entry_writes`, :attr:`stamp` and :attr:`epoch`
        where page-by-page unmapping would; ``on_unmap`` must not change
        the table.  Follow it with :meth:`release` to free the rest.
        """
        free = self.phys.free_frame
        removed = freed = 0

        def prune(chain) -> None:
            # :meth:`_prune` over ``(node, parent, index in parent)``,
            # bottom-up: free each node that has just emptied.
            nonlocal freed
            for node, parent, idx in chain:
                if node.entries:
                    return
                free(node.frame)
                del parent.entries[idx]
                freed += 1

        def visit(node: PageTableNode, prefix: int, chain) -> None:
            nonlocal removed
            entries = node.entries
            keys = sorted(entries)
            if node.level == 1:
                if not keys:
                    return
                last = keys.pop()
                for idx in keys:
                    on_unmap(prefix | idx, entries[idx])
                pte = entries[last]
                entries.clear()
                prune(chain)
                on_unmap(prefix | last, pte)
                removed += len(keys) + 1
                return
            for idx in keys:
                child = entries[idx]
                if type(child) is PageTableNode:
                    visit(child, (prefix | idx) << LEVEL_BITS,
                          ((child, node, idx), *chain))
                else:  # a 2 MiB entry
                    del entries[idx]
                    prune(chain)
                    on_unmap((prefix | idx) << LEVEL_BITS, child)
                    removed += 1

        visit(self.root, 0, ())
        # Unmapping page by page writes each removed entry and the parent
        # slot of each freed node, and bumps the epoch per freed node.
        self.entry_writes += removed + freed
        self.stamp += removed + freed
        self.epoch += freed
        # Every attached level-1 node held an entry, so all were freed.
        self.leaves.clear()
        self.mapped_pages = 0
        return removed

    # -- internals -------------------------------------------------------

    def _descend(self, vpn: int, bottom: int) -> Tuple[PageTableNode, int]:
        """The level-``bottom`` node on ``vpn``'s path, grown on demand.

        Returns the node and how many nodes were allocated on the way
        (each one entry write, linking it into its parent).  When a
        2 MiB entry covers ``vpn`` above ``bottom``, the level-2 node
        holding it is returned instead.  A level-1 node it allocates
        enters the leaf-table index.
        """
        if bottom == 1:
            hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
            if hit is not None:
                return hit[0], 0
        node = self.root
        nodes = [node]
        allocated = 0
        for level in range(self.levels, bottom, -1):
            idx = (vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK
            child = node.entries.get(idx)
            if child is None:
                child = PageTableNode(level - 1,
                                      self.phys.alloc_frame(self._tag))
                self._write_entry(node, idx, child)
                self.node_allocations += 1
                allocated += 1
            elif type(child) is not PageTableNode:
                if child.huge and level == 2:
                    break
                raise HardwareError(f"{self.name}: corrupt non-leaf at L{level}")
            node = child
            nodes.append(node)
        if allocated and node.level == 1:
            # Below a new node everything is new: this level-1 node was
            # allocated here.
            self.leaves[(vpn >> LEVEL_BITS) & self.leaf_key_mask] = (
                node, tuple(nodes), tuple(n.frame for n in nodes))
        return node, allocated

    def _prune(self, vpn: int, nodes: Sequence[PageTableNode]) -> None:
        """Free the last of ``nodes`` — ``vpn``'s path from the root —
        and its ancestors while they are empty.

        A freed level-1 node leaves the leaf-table index; its key is
        ``vpn``'s, which is the path's upper-level indices concatenated.
        """
        for i in range(len(nodes) - 1, 0, -1):
            child = nodes[i]
            if child.entries:
                break
            if child.level == 1:
                del self.leaves[(vpn >> LEVEL_BITS) & self.leaf_key_mask]
            self.phys.free_frame(child.frame)
            self.epoch += 1
            parent = nodes[i - 1]
            self._write_entry(
                parent, (vpn >> (parent.level - 1) * LEVEL_BITS) & _INDEX_MASK,
                None)

    def _check_huge_base(self, vpn: int) -> None:
        """Reject a 2 MiB base that is unaligned, or that has no level-2
        table to live in."""
        if vpn % HUGE_PAGE_PAGES:
            raise ValueError(f"huge mapping base {vpn:#x} not aligned")
        if self.levels < 2:
            raise ValueError(f"{self.name}: a 1-level table holds no 2 MiB entries")

    def _write_entry(self, node: PageTableNode, idx: int, value: object) -> None:
        if value is None:
            node.entries.pop(idx, None)
            self.stamp += 1
        else:
            node.entries[idx] = value
        self.entry_writes += 1

    def _update(self, node: PageTableNode, idx: int, pte: Pte,
                flags: Dict[str, object]) -> MapResult:
        """Apply ``flags`` to an existing entry in place (one entry
        write, none without flags); the :meth:`ensure` result."""
        if not flags:
            return MapResult(pte, 0, 0)
        unknown = flags.keys() - _PROTECTION_FLAGS - {"frame"}
        if unknown:
            raise ValueError(f"not a PTE update flag: {sorted(unknown)}")
        for key, value in flags.items():
            setattr(pte, key, value)
        self._write_entry(node, idx, pte)
        return MapResult(pte, 0, 1)

    def _leaf_of(self, vpn: int) -> Optional[Tuple[PageTableNode, int, Pte]]:
        """``(node, index, entry)`` of the entry covering ``vpn`` (a
        2 MiB one included), or None when nothing maps it."""
        hit = self.leaves.get((vpn >> LEVEL_BITS) & self.leaf_key_mask)
        if hit is not None:
            node = hit[0]
        else:
            node = self.root
            for level in range(self.levels, 1, -1):
                idx = (vpn >> (level - 1) * LEVEL_BITS) & _INDEX_MASK
                child = node.entries.get(idx)
                if type(child) is not PageTableNode:
                    if child is not None and child.huge and level == 2:
                        return node, idx, child
                    return None
                node = child
        idx = vpn & _INDEX_MASK
        pte = node.entries.get(idx)
        if pte is None:
            return None
        return node, idx, pte


def page_fault(
    vpn: int, access: AccessType, user: bool, present: bool, level: int
) -> PageFault:
    """The fault descriptor of a walk of ``vpn`` that stopped at ``level``."""
    code = _PRESENT_BIT if present else 0
    if access is _WRITE:
        code |= _WRITE_BIT
    elif access is _EXECUTE:
        code |= _FETCH_BIT
    if user:
        code |= _USER_BIT
    return build_record(PageFault,
                        (vpn << 12, access, _ERROR_CODES[code], level))

