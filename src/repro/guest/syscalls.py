"""Syscall registry with kernel-work bodies.

Each syscall's ``body_ns`` is the time spent *inside the guest kernel*
doing the syscall's actual work — everything that is identical across
virtualization platforms.  Bodies are calibrated so that the kvm-ept
bare-metal configuration (whose user/kernel transition costs ~0.22 us
with KPTI, Table 2) reproduces the paper's Table 3/4 bare-metal column;
every other configuration's numbers then *emerge* from its transition
and paging machinery.

``extra_transitions`` counts additional user<->kernel round trips the
operation implies beyond the initial syscall (signal delivery upcall +
sigreturn, for instance) — these are priced by the platform, not here,
because their cost is exactly what differs between KVM and PVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Syscall:
    """One syscall's transition-independent kernel cost profile."""
    name: str
    #: Kernel work excluding user/kernel transition costs.
    body_ns: int
    #: Additional user<->kernel round trips implied by the operation.
    extra_transitions: int = 0
    #: Kernel pages of page-table churn (PTEs written) the syscall causes
    #: even without user memory growth (e.g. pipe/file table pages).
    pte_writes: int = 0

    def __post_init__(self) -> None:
        # ``Machine.syscall`` charges ``body_ns`` to the clock directly.
        for name in ("body_ns", "extra_transitions", "pte_writes"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"syscall {self.name}: {name} must be a non-negative "
                    f"int, got {value!r}")


def _s(name: str, body_ns: int, **kw: int) -> Syscall:
    return Syscall(name=name, body_ns=body_ns, **kw)


#: Transition-independent kernel bodies (ns).  Derived from the paper's
#: kvm-ept (BM) single-process column minus the ~220 ns EPT+KPTI
#: syscall path (Table 2).
SYSCALLS: Dict[str, Syscall] = {
    sc.name: sc
    for sc in [
        _s("get_pid", 60),
        _s("null_io", 50),  # null I/O: read /dev/zero 1 byte
        _s("stat", 500),
        _s("fstat", 300),
        # lmbench open/close includes path walk + fd setup/teardown.
        _s("open_close", 24_850),
        _s("select_tcp", 1_940),  # slct tcp: select on 10 TCP fds
        _s("select_100fd", 1_800),  # 100fd select (Table 4)
        _s("sig_inst", 70),  # signal handler installation
        # signal delivery: kernel work plus one extra user<->kernel round
        # trip (upcall into the handler, then sigreturn).
        _s("sig_hndl", 570, extra_transitions=1),
        _s("read", 250),
        _s("write", 280),
        _s("brk", 400),
        _s("sched_yield", 150),
        _s("nanosleep", 900),
        _s("gettimeofday", 40),
        # file create/delete bodies (Table 4, 0K/10K files); the 10K
        # variant writes data pages, adding page-table churn.
        _s("file_create_0k", 86_000, pte_writes=2),
        _s("file_delete_0k", 55_000, pte_writes=1),
        _s("file_create_10k", 138_000, pte_writes=6),
        _s("file_delete_10k", 58_000, pte_writes=2),
        # networking bodies used by the apps models.
        _s("send", 1_200),
        _s("recv", 1_300),
    ]
}


def syscall(name: str) -> Syscall:
    """Look up a syscall, with a helpful error for typos."""
    try:
        return SYSCALLS[name]
    except KeyError:
        raise KeyError(
            f"unknown syscall {name!r}; known: {sorted(SYSCALLS)}"
        ) from None
