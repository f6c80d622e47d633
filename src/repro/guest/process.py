"""Guest processes.

A process couples an address space with its guest page table(s) and its
PCID.  Under KPTI the kernel keeps two page tables per process (a
user-visible one without kernel mappings, and the full kernel one);
we model both tables explicitly because PVM's dual *shadow* tables
(§3.3.2) shadow exactly this pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.guest.addrspace import AddressSpace
from repro.hw.pagetable import PageTable
from repro.hw.types import NUM_PCIDS


@dataclass
class Process:
    """One guest process."""

    pid: int
    addr_space: AddressSpace
    #: The process's full page table (kernel view: user + kernel halves).
    gpt: PageTable
    #: Under KPTI, the trimmed table active while in user mode.  When
    #: KPTI is off this is the same object as :attr:`gpt`.
    gpt_user: PageTable
    pcid: int = 0
    parent_pid: Optional[int] = None
    #: Pages currently shared copy-on-write with relatives (vpns).
    cow_pages: Set[int] = field(default_factory=set)
    alive: bool = True
    #: Allocation tag of the process's own data frames.
    tag: str = field(init=False)

    def __post_init__(self) -> None:
        self.tag = f"pid{self.pid}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process pid={self.pid} pcid={self.pcid} vmas={len(self.addr_space)}>"


class PidAllocator:
    """Monotonic PID source with a recycled PCID window."""

    def __init__(self, pcid_window: int = NUM_PCIDS) -> None:
        self._next_pid = 1
        self._pcid_window = pcid_window

    def next_pid(self) -> int:
        """Allocate the next PID."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def pcid_for(self, pid: int) -> int:
        """PCIDs recycle within the window (hardware has finitely many)."""
        return pid % self._pcid_window
