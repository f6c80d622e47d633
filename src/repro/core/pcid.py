"""PCID mapping (paper §3.3.2).

Without this optimization, all processes of an L2 guest share the
guest's VPID at the TLB, so any flush the hypervisor must perform on
behalf of one process can only target the whole VPID — evicting every
process's translations (a "cold-start penalty").

PVM instead assigns otherwise-unused L1 PCIDs to L2 address spaces:
PCIDs 32-47 back L2 kernel (v_ring0) spaces and 48-63 back L2 user
(v_ring3) spaces, mapped from the L2 guest's own PCIDs.  The TLB can
then recognize each L2 process's shadow translations individually and
flushes become per-PCID.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.types import (
    PVM_GUEST_KERNEL_PCID_BASE,
    PVM_GUEST_PCIDS_PER_CLASS,
    PVM_GUEST_USER_PCID_BASE,
    Asid,
    AsidTable,
)


class PcidMapper:
    """Maps (L2 pcid, is_kernel) to an L1 hardware PCID.

    The window is finite (16 slots per class); when it overflows the
    oldest mapping is recycled, which forces a flush of the recycled
    PCID — mirroring real PCID stealing.
    """

    def __init__(self, vpid: int, enabled: bool = True) -> None:
        self.vpid = vpid
        self.enabled = enabled
        self._asids = AsidTable(vpid)
        #: (L2 pcid, is_kernel) -> hardware PCID, least recently used
        #: first: a use moves the key to the end.
        self._map: Dict[Tuple[int, bool], int] = {}
        self.recycled = 0

    def asid_for(self, guest_pcid: int, kernel_half: bool) -> Asid:
        """The hardware TLB tag for one L2 address space.

        When the optimization is disabled every L2 space collapses onto
        PCID 0 of the guest's VPID — the configuration in which any
        flush must hit the whole VPID.
        """
        if not self.enabled:
            return self._asids[0]
        key = (guest_pcid, kernel_half)
        pcid = self._map.pop(key, None)
        if pcid is None:
            pcid = self._assign(kernel_half)
        self._map[key] = pcid
        return self._asids[pcid]

    def peek(self, guest_pcid: int, kernel_half: bool = False) -> Optional[int]:
        """The hardware PCID one L2 space is tagged with right now (0 when
        the mapping is off), or None when it has no slot.  Read-only:
        unlike :meth:`asid_for` it neither allocates nor touches the LRU."""
        if not self.enabled:
            return 0
        return self._map.get((guest_pcid, kernel_half))

    def _assign(self, kernel_half: bool) -> int:
        """A hardware PCID for a new mapping of one class: the lowest
        free slot, else the least recently used one, stolen."""
        base = (
            PVM_GUEST_KERNEL_PCID_BASE if kernel_half else PVM_GUEST_USER_PCID_BASE
        )
        used = {p for (k, p) in self._map.items() if k[1] == kernel_half}
        for candidate in range(base, base + PVM_GUEST_PCIDS_PER_CLASS):
            if candidate not in used:
                return candidate
        # Window full: steal the least-recently-used slot of this class.
        victim = next(k for k in self._map if k[1] == kernel_half)
        self.recycled += 1
        return self._map.pop(victim)

    @property
    def live_mappings(self) -> int:
        """PCID window slots currently mapped."""
        return len(self._map)
