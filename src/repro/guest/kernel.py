"""The guest kernel: process lifecycle, demand paging, GPT maintenance.

The kernel is deliberately *mechanism only*.  It mutates guest page
tables and reports what it did (:class:`GptFix`, :class:`ForkWork`);
the virtualization platform wrapping it decides what each page-table
write costs (nothing on EPT hardware; a write-protect trap under shadow
paging) and performs the corresponding world switches.  This split is
what lets five different deployment scenarios share one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.guest.addrspace import AddressSpace, SegfaultError, Vma
from repro.guest.process import PidAllocator, Process
from repro.hw.costs import CostModel
from repro.hw.memory import FrameRange, PhysicalMemory
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageTable, Pte
from repro.hw.types import AccessType, HardwareError, build_record


class GptFix(NamedTuple):
    """What the page-fault handler did to the guest page table."""

    vpn: int
    pte: Pte
    #: Number of page-table *levels* newly allocated (the paper's ``n``
    #: lower bound is 1: at minimum the leaf PTE is written).
    levels_allocated: int
    #: Total guest PTE/table-entry writes performed (each one is a
    #: write-protect trap under shadow paging).
    entry_writes: int
    #: True when the fix broke copy-on-write (allocated + copied a page).
    cow_break: bool = False
    #: True when the fix installed a 2 MiB (THP) mapping.
    huge: bool = False
    #: True when the faulting page lies in a file-backed VMA (the fault
    #: body is priced from this, so the VMA is looked up once).
    file_backed: bool = False


@dataclass(frozen=True)
class ForkWork:
    """Bookkeeping of a fork: how much page-table work it required."""

    child: Process
    #: PTE writes in the *parent* table (write-protect downgrades).
    parent_writes: int
    #: PTE writes in the child table (fresh mappings).
    child_writes: int
    pages_shared: int


@dataclass(frozen=True)
class UnmapWork:
    """Bookkeeping of an unmap: vpns removed and entries written."""
    vpns: Tuple[int, ...]
    entry_writes: int


class GuestKernel:
    """One guest's kernel: owns guest-physical memory and all processes."""

    def __init__(
        self,
        guest_phys: PhysicalMemory,
        costs: CostModel,
        kpti: bool = True,
        name: str = "guest",
        thp: bool = False,
    ) -> None:
        self.phys = guest_phys
        self.costs = costs
        self.kpti = kpti
        self.name = name
        #: Transparent huge pages: anonymous faults on fully-covered,
        #: aligned 2 MiB blocks are served with one huge mapping.
        self.thp = thp
        self.pids = PidAllocator()
        self.processes: Dict[int, Process] = {}
        #: vpn -> reference count for COW frames (shared between forks).
        self._cow_refs: Dict[Tuple[int, int], int] = {}
        #: Page cache: (file_key, page offset) -> frame.  Cache-owned
        #: frames are never freed by unmap (the cache holds a reference).
        self.page_cache: Dict[Tuple[str, int], int] = {}
        self._cached_frames: set = set()

    # -- process lifecycle -------------------------------------------------

    def create_process(self, vmas: Optional[Iterable[Vma]] = None) -> Process:
        """Spawn a fresh process (the exec'd image of a container init)."""
        pid = self.pids.next_pid()
        addr_space = AddressSpace()
        for vma in vmas or ():
            addr_space.insert(vma)
        gpt = PageTable(self.phys, name=f"{self.name}:gpt:{pid}")
        proc = Process(
            pid=pid,
            addr_space=addr_space,
            gpt=gpt,
            gpt_user=gpt,  # KPTI's split table shares subtrees; one object
            pcid=self.pids.pcid_for(pid),
        )
        self.processes[pid] = proc
        return proc

    def exit_process(self, proc: Process) -> int:
        """Tear down a process; returns the number of frames released.

        Frames go back in the order unmapping page by page would free
        them (guest RAM streams, so the order is observable), in one
        pass over the table (:meth:`PageTable.drain`).
        """
        if not proc.alive:
            raise HardwareError(f"double exit of pid {proc.pid}")
        released = 0

        def release(vpn: int, pte: Pte) -> None:
            nonlocal released
            if pte.huge:
                self.phys.free(FrameRange(pte.frame, HUGE_PAGE_PAGES))
                released += HUGE_PAGE_PAGES
            else:
                released += self._put_frame(proc, vpn, pte)

        proc.gpt.drain(release)
        proc.gpt.release()
        proc.alive = False
        del self.processes[proc.pid]
        return released

    # -- demand paging --------------------------------------------------------

    def fix_fault(self, proc: Process, vpn: int, access: AccessType,
                  existing: Optional[Pte]) -> GptFix:
        """Service a page fault by updating the guest page table.

        ``existing`` is the guest entry covering ``vpn`` (None when
        unmapped), as the fault handler looked it up.  Raises
        :class:`SegfaultError` if no VMA covers the page or the access
        violates the VMA's permissions.
        """
        vma = proc.addr_space.vma_at(vpn)
        if existing is not None:
            return self._fix_present_fault(proc, vma, vpn, existing, access)
        if access is AccessType.WRITE and not vma.writable:
            raise SegfaultError(vpn << 12)
        if self.thp and vma.kind == "anon":
            fix = self._try_huge_fault(proc, vma, vpn)
            if fix is not None:
                return fix
        if vma.kind == "file" and vma.file_key is not None:
            key = (vma.file_key, vpn - vma.start_vpn)
            frame = self.page_cache.get(key)
            if frame is None:
                frame = self.phys.alloc_frame(tag="page-cache")
                self.page_cache[key] = frame
                self._cached_frames.add(frame)
        else:
            frame = self.phys.alloc_frame(tag=f"pid{proc.pid}")
        # Positional: frame, writable, user, executable (a keyword call
        # to a class builds a dict per entry).
        pte = Pte(frame, vma.writable, True, vma.executable)
        result = proc.gpt.map(vpn, pte)
        # GptFix(vpn, pte, levels_allocated, entry_writes, cow_break,
        # huge, file_backed), built without its Python-level __new__.
        return build_record(GptFix, (
            vpn, pte, max(1, result.allocated_levels), result.written_frames,
            False, False, vma.kind == "file"))

    def _fix_present_fault(
        self, proc: Process, vma: Vma, vpn: int, pte: Pte, access: AccessType
    ) -> GptFix:
        """Protection fault on a present page: COW break or mprotect fix."""
        if access is not AccessType.WRITE:
            # Present + non-write fault: user bit or NX violation — fatal.
            raise SegfaultError(vpn << 12)
        if vpn in proc.cow_pages:
            new_frame = self.phys.alloc_frame(tag=f"pid{proc.pid}")
            self._put_frame(proc, vpn, pte)
            proc.cow_pages.discard(vpn)
            pte.frame = new_frame
            new_pte = proc.gpt.protect(vpn, writable=True)
            return GptFix(
                vpn=vpn, pte=new_pte, levels_allocated=1, entry_writes=1,
                cow_break=True, file_backed=vma.kind == "file",
            )
        if not vma.writable:
            raise SegfaultError(vpn << 12)
        # VMA is writable but the PTE was read-only (e.g. after a manual
        # mprotect cycle): upgrade in place.
        new_pte = proc.gpt.protect(vpn, writable=True)
        return GptFix(vpn=vpn, pte=new_pte, levels_allocated=1, entry_writes=1,
                      file_backed=vma.kind == "file")

    def _try_huge_fault(self, proc: Process, vma: Vma, vpn: int):
        """Serve the fault with one 2 MiB mapping when possible."""
        base = vpn - (vpn % HUGE_PAGE_PAGES)
        if base < vma.start_vpn or base + HUGE_PAGE_PAGES > vma.end_vpn:
            return None
        try:
            frames = self.phys.alloc_aligned(
                HUGE_PAGE_PAGES, tag=f"pid{proc.pid}"
            )
        except MemoryError:
            return None
        pte = Pte(frame=frames.start, writable=vma.writable, user=True,
                  executable=vma.executable, huge=True)
        try:
            result = proc.gpt.map_huge(base, pte)
        except HardwareError:
            # The block already holds 4K mappings; fall back.
            self.phys.free(frames)
            return None
        return GptFix(
            vpn=base,
            pte=pte,
            levels_allocated=max(1, result.allocated_levels),
            entry_writes=result.written_frames,
            huge=True,
        )

    # -- mmap family -------------------------------------------------------------

    def sys_mmap(self, proc: Process, length_bytes: int, writable: bool = True,
                 kind: str = "anon", file_key: Optional[str] = None) -> Vma:
        """mmap: VMA only, no page-table work (demand paging)."""
        return proc.addr_space.mmap(
            length_bytes, writable=writable, kind=kind, file_key=file_key
        )

    def sys_munmap(self, proc: Process, vma: Vma) -> UnmapWork:
        """Unmap a VMA: remove its VMA and any installed PTEs."""
        proc.addr_space.munmap(vma.start_vpn)
        removed: List[int] = []
        # One descent per leaf table of the run.
        proc.gpt.unmap_each(range(vma.start_vpn, vma.end_vpn),
                            self._releaser(proc, removed))
        return UnmapWork(vpns=tuple(removed), entry_writes=len(removed))

    def sys_mprotect(self, proc: Process, vma: Vma, writable: bool) -> int:
        """Change protections; returns the number of PTEs rewritten."""
        vma.writable = writable
        return proc.gpt.protect_range(vma.start_vpn, vma.end_vpn,
                                      writable=writable)

    # -- fork / exec ----------------------------------------------------------------

    def sys_fork(self, proc: Process) -> ForkWork:
        """Fork: clone VMAs and duplicate the page table copy-on-write.

        Every currently-mapped parent page is downgraded to read-only
        (one parent PTE write) and mapped read-only into the child (one
        child PTE write plus any table-node allocations) — the
        page-table-heavy, no-touch pattern behind the paper's fork rows.
        """
        child = self.create_process()
        child.addr_space = proc.addr_space.clone()
        child.parent_pid = proc.pid
        parent_writes = 0
        child_writes = 0
        shared = 0
        # THP: huge mappings split to base pages before COW sharing (the
        # page-table churn fork forces onto transparent huge pages).
        huge_bases = [v for v, p in proc.gpt.iter_mappings() if p.huge]
        for base in huge_bases:
            result = proc.gpt.split_huge(base)
            parent_writes += result.written_frames
        for vpn, pte in proc.gpt.iter_mappings():
            if pte.writable:
                proc.gpt.protect(vpn, writable=False)
                parent_writes += 1
            proc.cow_pages.add(vpn)
            child.cow_pages.add(vpn)
            self._cow_share(proc, vpn, pte.frame)
            child_pte = Pte(
                frame=pte.frame,
                writable=False,
                user=pte.user,
                executable=pte.executable,
            )
            result = child.gpt.map(vpn, child_pte)
            child_writes += result.written_frames
            shared += 1
        return ForkWork(
            child=child,
            parent_writes=parent_writes,
            child_writes=child_writes,
            pages_shared=shared,
        )

    def sys_exec(self, proc: Process, image_pages: int = 64) -> UnmapWork:
        """Exec: tear down the old image, set up fresh text/data VMAs.

        Returns the teardown work; the new image pages fault in lazily.
        The old image goes in one pass over the table
        (:meth:`PageTable.drain`), in page-by-page unmapping's order.
        """
        removed: List[int] = []
        proc.gpt.drain(self._releaser(proc, removed))
        proc.cow_pages.clear()
        proc.addr_space.clear()
        text = Vma(0x400, max(1, image_pages // 2), writable=False,
                   executable=True, kind="text")
        data = Vma(0x400 + image_pages, max(1, image_pages // 2), kind="anon")
        proc.addr_space.insert(text)
        proc.addr_space.insert(data)
        return UnmapWork(vpns=tuple(removed), entry_writes=len(removed))

    def _releaser(self, proc: Process,
                  removed: List[int]) -> Callable[[int, Pte], None]:
        """An ``on_unmap`` callback for ``proc``'s table: each unmapped
        entry's frame goes back right after the entry, as page-by-page
        unmapping would free it, and its vpn is appended to ``removed``."""
        def release(vpn: int, pte: Pte) -> None:
            if pte.huge:
                self.phys.free(FrameRange(pte.frame, HUGE_PAGE_PAGES))
            else:
                self._put_frame(proc, vpn, pte)
            removed.append(vpn)

        return release

    # -- COW frame refcounting ----------------------------------------------------

    def _cow_share(self, proc: Process, vpn: int, frame: int) -> None:
        key = (frame, 0)
        self._cow_refs[key] = self._cow_refs.get(key, 1) + 1

    def _put_frame(self, proc: Process, vpn: int, pte: Pte) -> int:
        """Release one reference to a frame; free it on last drop.

        Returns 1 if the frame was actually freed.
        """
        if pte.frame in self._cached_frames:
            return 0  # page-cache frame: the cache keeps its reference
        key = (pte.frame, 0)
        refs = self._cow_refs.get(key)
        if refs is not None and refs > 1:
            self._cow_refs[key] = refs - 1
            return 0
        self._cow_refs.pop(key, None)
        self.phys.free_frame(pte.frame)
        return 1
