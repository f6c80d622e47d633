"""The prefault optimization (paper §3.3.2, Figure 9 step 8).

After the L2 kernel finishes fixing GPT2 and returns via the ``iret``
hypercall, PVM is already in the hypervisor with the faulting GVA at
hand.  Instead of direct-switching back to the user and eating a second
fault when the hardware misses SPT12, PVM *proactively* fills the shadow
entry on the iret path — trading :attr:`CostModel.prefault_fill` of
in-hypervisor work for a whole extra VM exit (two PVM world switches).

The fill happens in the same handler that fixed the fault, so the only
state is the switch and a count of the fills (each one a saved
shadow-stale fault).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Prefaulter:
    """The prefault switch and its fill count; one per PVM machine."""

    enabled: bool = True
    #: Shadow entries filled on the iret path.
    fills: int = 0
