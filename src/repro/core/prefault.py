"""The prefault optimization (paper §3.3.2, Figure 9 step 8).

After the L2 kernel finishes fixing GPT2 and returns via the ``iret``
hypercall, PVM is already in the hypervisor with the faulting GVA at
hand.  Instead of direct-switching back to the user and eating a second
fault when the hardware misses SPT12, PVM *proactively* fills the shadow
entry on the iret path — trading :attr:`CostModel.prefault_fill` of
in-hypervisor work for a whole extra VM exit (two PVM world switches).

The fill happens in the same handler that fixed the fault, so the only
state is the switch.  A fill is not counted apart: each one is a
shadow-stale fault (``phase2:shadow-pt``) that never happens, which the
EventLog's fault and switch counts show.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Prefaulter:
    """The prefault switch; one per PVM machine."""

    enabled: bool = True
