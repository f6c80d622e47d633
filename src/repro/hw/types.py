"""Core vocabulary of the hardware substrate.

Addresses are plain integers (byte addresses); frame and page numbers are
integers obtained by shifting.  The enums here mirror the architectural
concepts the paper reasons about: privilege rings, VMX root/non-root
operation, page-access types, and page-fault error codes.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Paging geometry (x86-64, 4 KiB pages, 4-level radix tree)
# ---------------------------------------------------------------------------

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = ~(PAGE_SIZE - 1)

#: Number of page-table levels (PML4, PDPT, PD, PT).  The paper's
#: world-switch formulas are parameterized on this ``n``.
PT_LEVELS = 4

#: Bits of index per level (512 entries per table).
LEVEL_BITS = 9
ENTRIES_PER_TABLE = 1 << LEVEL_BITS

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def page_number(addr: int) -> int:
    """Return the virtual/physical page number containing ``addr``."""
    return addr >> PAGE_SHIFT


def page_base(addr: int) -> int:
    """Return the base address of the page containing ``addr``."""
    return addr & PAGE_MASK


def page_offset(addr: int) -> int:
    """Return the offset of ``addr`` within its page."""
    return addr & (PAGE_SIZE - 1)


def pages_spanned(addr: int, length: int) -> int:
    """Number of pages touched by the byte range [addr, addr+length)."""
    if length <= 0:
        return 0
    first = page_number(addr)
    last = page_number(addr + length - 1)
    return last - first + 1


def table_index(vpn: int, level: int) -> int:
    """Index into the page table at ``level`` for virtual page ``vpn``.

    ``level`` counts from 1 (leaf PT) to :data:`PT_LEVELS` (root PML4),
    matching the paper's use of ``n`` as the number of levels walked.
    """
    if not 1 <= level <= PT_LEVELS:
        raise ValueError(f"level must be in 1..{PT_LEVELS}, got {level}")
    return (vpn >> ((level - 1) * LEVEL_BITS)) & (ENTRIES_PER_TABLE - 1)


# ---------------------------------------------------------------------------
# Privilege and CPU operation modes
# ---------------------------------------------------------------------------


class Ring(enum.IntEnum):
    """x86 protection rings.

    PVM de-privileges the entire L2 guest (user *and* kernel) to
    :attr:`RING3`; the L2 kernel's "ring 0" is purely virtual
    (:class:`VirtualRing`).
    """

    RING0 = 0
    RING1 = 1
    RING2 = 2
    RING3 = 3


class VirtualRing(enum.IntEnum):
    """PVM's virtual rings for the de-privileged L2 guest (paper §3.1)."""

    V_RING0 = 0  # L2 guest kernel
    V_RING3 = 3  # L2 guest user / secure container


class CpuMode(enum.Enum):
    """VMX operation mode of a logical CPU."""

    ROOT = "root"  # host hypervisor (L0)
    NON_ROOT = "non-root"  # guests (L1, L2)


class AccessType(enum.Enum):
    """Type of a memory access, used for permission checks."""

    READ = "r"
    WRITE = "w"
    EXECUTE = "x"


class PageFaultError(enum.Flag):
    """Subset of the x86 page-fault error code bits we model."""

    NONE = 0
    PRESENT = enum.auto()  # fault caused by a protection violation
    WRITE = enum.auto()  # faulting access was a write
    USER = enum.auto()  # faulting access came from user mode
    FETCH = enum.auto()  # faulting access was an instruction fetch


# ---------------------------------------------------------------------------
# Address-space identifiers
# ---------------------------------------------------------------------------

#: Number of architectural PCIDs (12-bit on hardware; we model 64 to keep
#: working sets small while preserving the paper's 32..63 mapping window).
PCID_BITS = 6
NUM_PCIDS = 1 << PCID_BITS


def asid_key(vpid: int, pcid: int) -> int:
    """Pack a (VPID, PCID) pair into one int.

    The packed form is the tag the TLB keys its entries by — integer
    keys hash an order of magnitude faster than tuples of frozen
    dataclasses, which matters on the translation hot path.
    """
    return (vpid << PCID_BITS) | pcid

#: The PCID window PVM hands out to L2 guests (paper §3.3.2): PCIDs 32..47
#: back L2 v_ring0 (kernel) address spaces and 48..63 back v_ring3 (user).
PVM_GUEST_KERNEL_PCID_BASE = 32
PVM_GUEST_USER_PCID_BASE = 48
PVM_GUEST_PCIDS_PER_CLASS = 16


class Asid:
    """A hierarchical TLB address-space tag: (VPID, PCID).

    Hardware tags TLB entries with the virtual-processor identifier of the
    VM and the process-context identifier of the process.  A flush can
    target one PCID or a whole VPID; the paper's PCID-mapping optimization
    exists precisely to avoid whole-VPID flushes for L2 guests.

    ``key`` is the :func:`asid_key` packing, computed once at construction
    so the translation hot path pays a single attribute load instead of
    two loads plus the shift/or.  Equality and hashing remain on the
    (vpid, pcid) pair.
    """

    __slots__ = ("vpid", "pcid", "key")

    def __init__(self, vpid: int, pcid: int) -> None:
        if vpid < 0:
            raise ValueError(f"vpid must be non-negative, got {vpid}")
        if not 0 <= pcid < NUM_PCIDS:
            raise ValueError(f"pcid must be in 0..{NUM_PCIDS - 1}, got {pcid}")
        self.vpid = vpid
        self.pcid = pcid
        self.key = (vpid << PCID_BITS) | pcid

    def __repr__(self) -> str:
        return f"Asid(vpid={self.vpid}, pcid={self.pcid})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Asid):
            return NotImplemented
        return self.vpid == other.vpid and self.pcid == other.pcid

    def __hash__(self) -> int:
        return hash((self.vpid, self.pcid))


class PerKey(dict):
    """``key -> build(key)``, each value built on first use.

    Indexing with a key never seen builds and keeps its value, so a hot
    path reads an existing one with a plain subscript.
    """

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class AsidTable(dict):
    """``pcid -> Asid`` of one VPID, each tag built once on first use.

    Translation paths ask for a tag on every access; handing back one
    shared object per tag instead of a fresh one is free, since nothing
    mutates an :class:`Asid`.
    """

    def __init__(self, vpid: int) -> None:
        super().__init__()
        self.vpid = vpid

    def __missing__(self, pcid: int) -> Asid:
        asid = self[pcid] = Asid(self.vpid, pcid)
        return asid


#: VPID 0 is conventionally the host's own address space.
HOST_VPID = 0


# ---------------------------------------------------------------------------
# Fault descriptors
# ---------------------------------------------------------------------------

#: ``build_record(Cls, (field, ...))`` builds a NamedTuple record from a
#: tuple of all its fields, in order, without the class's generated
#: ``__new__``: a Python function called from C, which costs about as
#: much again as the record itself.  The fault path builds its
#: descriptors this way.  Nothing checks the field count: pass them all.
build_record = tuple.__new__


class PageFault(NamedTuple):
    """A page fault the MMU found during a walk.

    ``level`` records the page-table level at which the walk stopped
    (``PT_LEVELS`` for a missing top-level entry, 1 for a missing leaf),
    which the hypervisors use to decide how many table levels they must
    populate — the ``n`` in the paper's switch-count formulas.

    A plain immutable record: the MMU builds one per fault and hands it
    back through :attr:`repro.hw.mmu.Mmu.fault`, nothing raises it.
    """

    vaddr: int
    access: AccessType
    error: PageFaultError
    level: int

    @property
    def is_protection(self) -> bool:
        """True when the fault hit a present-but-forbidden entry."""
        return bool(self.error & PageFaultError.PRESENT)

    @property
    def is_write(self) -> bool:
        """True when the faulting access was a write."""
        return bool(self.error & PageFaultError.WRITE)

    def __str__(self) -> str:
        return f"page fault @ {self.vaddr:#x} ({self.error})"


class EptViolation(NamedTuple):
    """A fault found during the extended (second-dimension) walk.

    ``gpa`` is the guest-physical address whose translation was missing or
    insufficient in the EPT.  Immutable, like :class:`PageFault`.
    """

    gpa: int
    access: AccessType
    level: int

    def __str__(self) -> str:
        return f"EPT violation @ gpa {self.gpa:#x}"


class HardwareError(Exception):
    """Raised on substrate misuse (double-map, out-of-range frame, ...)."""
