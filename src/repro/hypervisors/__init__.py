"""Virtualization stacks: the paper's baselines.

Five deployment scenarios from the evaluation (§4), all programmed
against the same workload-facing :class:`~repro.hypervisors.base.Machine`
API:

* ``kvm-ept (BM)``  — :class:`repro.hypervisors.kvm_ept.KvmEptMachine`
* ``kvm-spt (BM)``  — :class:`repro.hypervisors.kvm_spt.KvmSptMachine`
* ``pvm (BM)``      — :class:`repro.core.pvm_machine.PvmMachine` (bare metal)
* ``kvm-ept (NST)`` — :class:`repro.hypervisors.ept_on_ept.EptOnEptMachine`
* ``pvm (NST)``     — :class:`repro.core.pvm_machine.PvmMachine` (nested)

plus the SPT-on-EPT nested baseline of §2.2
(:class:`repro.hypervisors.spt_on_ept.SptOnEptMachine`), which the paper
analyzes but excludes from §4 for its impractical performance, and the
§5 direct-paging design
(:class:`repro.core.direct_paging.DirectPagingMachine`, ``pvm-dp (NST)``).
"""

from repro.hypervisors.base import Machine, CpuCtx, MachineConfig
from repro.hypervisors.kvm_ept import KvmEptMachine
from repro.hypervisors.kvm_spt import KvmSptMachine
from repro.hypervisors.ept_on_ept import EptOnEptMachine
from repro.hypervisors.spt_on_ept import SptOnEptMachine

__all__ = [
    "Machine",
    "CpuCtx",
    "MachineConfig",
    "KvmEptMachine",
    "KvmSptMachine",
    "EptOnEptMachine",
    "SptOnEptMachine",
]
