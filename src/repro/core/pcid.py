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
        self._map: Dict[Tuple[int, bool], int] = {}
        self._lru: list[Tuple[int, bool]] = []
        self.recycled = 0

    def asid_for(self, guest_pcid: int, kernel_half: bool) -> Asid:
        """The hardware TLB tag for one L2 address space.

        When the optimization is disabled every L2 space collapses onto
        PCID 0 of the guest's VPID — the configuration in which any
        flush must hit the whole VPID.
        """
        if not self.enabled:
            return Asid(vpid=self.vpid, pcid=0)
        return Asid(vpid=self.vpid, pcid=self._hw_pcid(guest_pcid, kernel_half))

    def peek(self, guest_pcid: int, kernel_half: bool = False) -> Optional[int]:
        """The hardware PCID one L2 space is tagged with right now (0 when
        the mapping is off), or None when it has no slot.  Read-only:
        unlike :meth:`asid_for` it neither allocates nor touches the LRU."""
        if not self.enabled:
            return 0
        return self._map.get((guest_pcid, kernel_half))

    def _hw_pcid(self, guest_pcid: int, kernel_half: bool) -> int:
        key = (guest_pcid, kernel_half)
        pcid = self._map.get(key)
        if pcid is not None:
            self._touch(key)
            return pcid
        base = (
            PVM_GUEST_KERNEL_PCID_BASE if kernel_half else PVM_GUEST_USER_PCID_BASE
        )
        used = {p for (k, p) in self._map.items() if k[1] == kernel_half}
        for candidate in range(base, base + PVM_GUEST_PCIDS_PER_CLASS):
            if candidate not in used:
                self._map[key] = candidate
                self._lru.append(key)
                return candidate
        # Window full: steal the least-recently-used slot of this class.
        victim = next(k for k in self._lru if k[1] == kernel_half)
        self._lru.remove(victim)
        stolen = self._map.pop(victim)
        self._map[key] = stolen
        self._lru.append(key)
        self.recycled += 1
        return stolen

    def _touch(self, key: Tuple[int, bool]) -> None:
        if key in self._lru:
            self._lru.remove(key)
        self._lru.append(key)

    @property
    def live_mappings(self) -> int:
        """PCID window slots currently mapped."""
        return len(self._map)
