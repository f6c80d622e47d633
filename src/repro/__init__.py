"""PVM reproduction: efficient shadow paging for secure containers.

A simulation-based reproduction of *PVM: Efficient Shadow Paging for
Deploying Secure Containers in Cloud-native Environments* (SOSP 2023).

Public API tour
---------------

Deployment scenarios (the paper's five configurations)::

    from repro import make_machine
    m = make_machine("pvm (NST)")          # or kvm-ept (BM), kvm-spt (BM),
                                           # pvm (BM), kvm-ept (NST),
                                           # kvm-spt (NST) [SPT-on-EPT]
    ctx = m.new_context()                  # one vCPU context
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 1 << 20)       # 1 MiB anonymous mapping
    m.touch(ctx, proc, vma.start_vpn, write=True)   # demand fault
    print(ctx.clock.now, "virtual ns")
    print(m.events.world_switches.by_key)  # who switched worlds, and how

Workloads and benchmarks live in :mod:`repro.workloads` and
:mod:`repro.bench`; the container runtime in :mod:`repro.containers`.
"""

from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hypervisors.base import Machine, MachineConfig
from repro.hypervisors.kvm_ept import KvmEptMachine
from repro.hypervisors.kvm_spt import KvmSptMachine
from repro.hypervisors.ept_on_ept import EptOnEptMachine
from repro.hypervisors.spt_on_ept import SptOnEptMachine
from repro.core.pvm_machine import PvmMachine
from repro.core.direct_paging import DirectPagingMachine

__version__ = "1.0.0"

#: Factory registry keyed by the paper's scenario labels.  The last
#: entry is the §5 future-work design (direct paging), not part of the
#: paper's evaluated matrix.
_SCENARIOS = {
    "kvm-ept (BM)": lambda **kw: KvmEptMachine(**kw),
    "kvm-spt (BM)": lambda **kw: KvmSptMachine(**kw),
    "pvm (BM)": lambda **kw: PvmMachine(nested=False, **kw),
    "kvm-ept (NST)": lambda **kw: EptOnEptMachine(**kw),
    "kvm-spt (NST)": lambda **kw: SptOnEptMachine(**kw),
    "pvm (NST)": lambda **kw: PvmMachine(nested=True, **kw),
    "pvm-dp (NST)": lambda **kw: DirectPagingMachine(**kw),
}

SCENARIOS = tuple(_SCENARIOS)


def make_machine(name: str, **kwargs) -> Machine:
    """Instantiate a deployment scenario by its paper label.

    Keyword arguments are forwarded to the machine constructor
    (``config=MachineConfig(...)``, ``costs=...``, ``events=...``).
    """
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {SCENARIOS}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "EventLog",
    "Machine",
    "MachineConfig",
    "KvmEptMachine",
    "KvmSptMachine",
    "EptOnEptMachine",
    "SptOnEptMachine",
    "PvmMachine",
    "SCENARIOS",
    "make_machine",
]
