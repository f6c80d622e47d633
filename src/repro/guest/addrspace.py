"""Virtual-memory areas and demand paging policy.

An :class:`AddressSpace` is a sorted collection of :class:`Vma` ranges
plus an allocation cursor for anonymous mmap.  Mapping is *lazy*: mmap
only records the VMA; page-table entries appear when the page is first
touched and the fault handler consults :meth:`AddressSpace.vma_at`.
This laziness is essential — the paper's fork/exec observations hinge on
page tables being created without pages being touched.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.hw.types import PAGE_SHIFT, pages_spanned


#: Start of the anonymous-mmap arena (page number), well above text/heap.
MMAP_BASE_VPN = 0x7F00_0000
#: First kernel virtual page number; addresses at or above this are
#: kernel-only (the guest's "upper half").
KERNEL_BASE_VPN = 1 << 35


class SegfaultError(Exception):
    """Access outside any VMA (delivered to the process as SIGSEGV).

    ``args`` holds the faulting address, so the error pickles; the
    message is formatted on demand.
    """

    def __init__(self, vaddr: int) -> None:
        super().__init__(vaddr)
        self.vaddr = vaddr

    def __str__(self) -> str:
        return f"segmentation fault at {self.vaddr:#x}"


@dataclass
class Vma:
    """One virtual memory area: [start_vpn, start_vpn + npages)."""

    start_vpn: int
    npages: int
    writable: bool = True
    executable: bool = False
    kind: str = "anon"  # anon | file | stack | text | shared
    #: Identity of the backing file for ``kind == "file"`` mappings:
    #: faults on the same (file_key, offset) hit the same page-cache
    #: frame across re-mappings, as on a real kernel.
    file_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.npages <= 0:
            raise ValueError(f"VMA must span at least one page, got {self.npages}")

    @property
    def end_vpn(self) -> int:
        """One past the last page of the VMA."""
        return self.start_vpn + self.npages

    def contains(self, vpn: int) -> bool:
        """True when the vpn lies inside this VMA."""
        return self.start_vpn <= vpn < self.end_vpn

    def overlaps(self, other: "Vma") -> bool:
        """True when the two VMAs share any page."""
        return self.start_vpn < other.end_vpn and other.start_vpn < self.end_vpn


class AddressSpace:
    """The user portion of one process's virtual address space."""

    def __init__(self) -> None:
        self._vmas: List[Vma] = []  # sorted by start_vpn
        self._starts: List[int] = []
        self._mmap_cursor = MMAP_BASE_VPN

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self) -> Iterator[Vma]:
        return iter(self._vmas)

    @property
    def total_pages(self) -> int:
        """Pages covered by all VMAs."""
        return sum(v.npages for v in self._vmas)

    # -- mapping -----------------------------------------------------------

    def insert(self, vma: Vma) -> Vma:
        """Insert a VMA at a fixed address; rejects overlaps."""
        if vma.start_vpn >= KERNEL_BASE_VPN:
            raise ValueError("user VMA cannot start in kernel space")
        idx = bisect.bisect_left(self._starts, vma.start_vpn)
        for neighbour in self._vmas[max(0, idx - 1): idx + 1]:
            if neighbour.overlaps(vma):
                raise ValueError(
                    f"VMA [{vma.start_vpn:#x},{vma.end_vpn:#x}) overlaps "
                    f"[{neighbour.start_vpn:#x},{neighbour.end_vpn:#x})"
                )
        self._vmas.insert(idx, vma)
        self._starts.insert(idx, vma.start_vpn)
        return vma

    def mmap(self, length_bytes: int, writable: bool = True, kind: str = "anon",
             file_key: Optional[str] = None) -> Vma:
        """mmap at the allocation cursor (bump allocator)."""
        npages = pages_spanned(0, length_bytes)
        if npages == 0:
            raise ValueError("cannot mmap zero bytes")
        start = self._mmap_cursor
        if npages >= 512:
            # Large mappings are 2 MiB-aligned so THP can back them.
            start = (start + 511) & ~511
        vma = Vma(start, npages, writable=writable, kind=kind,
                  file_key=file_key)
        self._mmap_cursor = start + npages
        return self.insert(vma)

    def munmap(self, start_vpn: int) -> Vma:
        """Remove the VMA beginning exactly at ``start_vpn``."""
        idx = bisect.bisect_left(self._starts, start_vpn)
        if idx >= len(self._vmas) or self._vmas[idx].start_vpn != start_vpn:
            raise ValueError(f"no VMA starts at vpn {start_vpn:#x}")
        del self._starts[idx]
        return self._vmas.pop(idx)

    # -- lookup --------------------------------------------------------------

    def vma_at(self, vpn: int) -> Vma:
        """The VMA covering ``vpn``; raises :class:`SegfaultError`."""
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx >= 0 and self._vmas[idx].contains(vpn):
            return self._vmas[idx]
        raise SegfaultError(vpn << PAGE_SHIFT)

    def covers(self, vpn: int) -> bool:
        """True when some VMA covers the vpn."""
        try:
            self.vma_at(vpn)
            return True
        except SegfaultError:
            return False

    # -- fork ------------------------------------------------------------------

    def clone(self) -> "AddressSpace":
        """Duplicate for fork: same VMAs, same cursor."""
        child = AddressSpace()
        child._vmas = [
            Vma(v.start_vpn, v.npages, v.writable, v.executable, v.kind,
                v.file_key)
            for v in self._vmas
        ]
        child._starts = list(self._starts)
        child._mmap_cursor = self._mmap_cursor
        return child

    def clear(self) -> None:
        """Drop all VMAs (exec)."""
        self._vmas.clear()
        self._starts.clear()
        self._mmap_cursor = MMAP_BASE_VPN
