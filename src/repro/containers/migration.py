"""Live migration / save / restore of the L1 VM (§2.3).

One of the paper's deployment arguments: with hardware-assisted nested
virtualization, "once an L2 guest is running, L1 can no longer be
migrated, saved, or loaded" — the L0 hypervisor holds live shadow state
(VMCS02, shadow EPT02) for the nested guests that cannot be serialized
through the normal VM lifecycle.  PVM pins nothing in L0: its L1 VM
looks exactly like any other VM, so cluster management keeps working.

The manager models pre-copy migration: iterative dirty-page copy, then
a stop-and-copy downtime window proportional to the residual set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.faults import SITE_MIGRATION_COPY, FaultPlan, MigrationLinkError
from repro.hypervisors.base import Machine


#: Per-page copy time over the migration link (~10 GbE with overheads).
PAGE_COPY_NS = 3_500
#: Fixed stop-and-copy overhead (device state, final sync).
DOWNTIME_BASE_NS = 40_000_000  # 40 ms
#: Fraction of mapped pages still dirty at stop-and-copy.
RESIDUAL_DIRTY = 0.05
#: Pre-copy attempts before a persistently failing link aborts the
#: migration (transient faults retry with capped exponential backoff).
MAX_COPY_ATTEMPTS = 4
#: First retry backoff; doubles per attempt up to the cap.
RETRY_BACKOFF_BASE_NS = 5_000_000  # 5 ms
RETRY_BACKOFF_CAP_NS = 40_000_000  # 40 ms


class MigrationBlockedError(Exception):
    """The L1 VM cannot be migrated in its current configuration."""


class NotMigratableError(Exception):
    """The deployment has no L1 VM to migrate (bare-metal scenarios)."""


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one successful L1 migration."""

    pages_copied: int
    precopy_ns: int
    downtime_ns: int
    #: Pre-copy passes taken (1 = no transient link faults).
    attempts: int = 1
    #: Time lost to aborted passes and retry backoff.
    retry_ns: int = 0

    @property
    def total_ns(self) -> int:
        """Pre-copy plus downtime plus retry losses."""
        return self.precopy_ns + self.downtime_ns + self.retry_ns


def pins_host_state(machine: Machine) -> bool:
    """Whether this stack parks per-L2 state inside the L0 hypervisor.

    Hardware-assisted nesting does: L0 holds the shadow VMCS02 and (for
    EPT-on-EPT) the compressed EPT02 for every running L2 guest.  PVM
    does not — by design, L0 sees only an ordinary VM.
    """
    return machine.vmcs02() is not None


class MigrationManager:
    """Migrates the L1 VM hosting a set of secure containers."""

    def migrate_l1(
        self,
        machines: Sequence[Machine],
        plan: Optional[FaultPlan] = None,
        now_ns: int = 0,
        max_attempts: int = MAX_COPY_ATTEMPTS,
    ) -> MigrationReport:
        """Live-migrate the L1 VM with all its L2 guests running.

        Raises :class:`NotMigratableError` for bare-metal scenarios and
        :class:`MigrationBlockedError` when any running stack pins state
        in the host hypervisor (the kvm NST limitation).

        With a :class:`~repro.faults.FaultPlan`, transient link faults
        (site ``migration.page-copy``) abort a pre-copy pass partway
        through; the manager retries with capped exponential backoff up
        to ``max_attempts`` passes (``MigrationLinkError`` beyond), and
        the report carries ``attempts`` and the time lost in
        ``retry_ns``.  ``now_ns`` is the virtual time the migration
        starts at, used only to trigger the plan.
        """
        if not machines:
            raise ValueError("nothing to migrate")
        for m in machines:
            if not m.nested:
                raise NotMigratableError(
                    f"{m.name} runs on bare metal; there is no L1 VM"
                )
            if pins_host_state(m):
                raise MigrationBlockedError(
                    f"{m.name}: L0 holds live VMCS02/EPT02 state for the "
                    f"running L2 guests; the L1 VM cannot be migrated, "
                    f"saved, or loaded (§2.3)"
                )
        pages = sum(self._l1_footprint_pages(m) for m in machines)
        precopy = pages * PAGE_COPY_NS
        attempts = 1
        retry_ns = 0
        t = now_ns
        while plan is not None and plan.fires(SITE_MIGRATION_COPY, t):
            if attempts >= max_attempts:
                raise MigrationLinkError(
                    f"migration link failed {attempts} pre-copy passes; "
                    f"giving up after {retry_ns} ns of retries"
                )
            # The link dropped partway through this pass: the fraction
            # already copied is wasted, then the backoff elapses.
            fraction = plan.uniform(SITE_MIGRATION_COPY, 0.1, 0.9)
            backoff = min(RETRY_BACKOFF_BASE_NS * (1 << (attempts - 1)),
                          RETRY_BACKOFF_CAP_NS)
            wasted = int(precopy * fraction) + backoff
            retry_ns += wasted
            t += wasted
            attempts += 1
        residual = max(1, int(pages * RESIDUAL_DIRTY))
        downtime = DOWNTIME_BASE_NS + residual * PAGE_COPY_NS
        return MigrationReport(
            pages_copied=pages + residual,
            precopy_ns=precopy,
            downtime_ns=downtime,
            attempts=attempts,
            retry_ns=retry_ns,
        )

    def save_restore_supported(self, machine: Machine) -> bool:
        """Snapshot/restore of the L1 VM (same constraint as migration)."""
        return machine.nested and not pins_host_state(machine)

    @staticmethod
    def _l1_footprint_pages(machine: Machine) -> int:
        """Pages the L1 VM actually uses for this guest (RAM + tables)."""
        used = machine.guest_phys.allocator.used_frames
        l1_phys = machine.memory.l1_phys
        if l1_phys is not None:
            used += l1_phys.allocator.used_frames
        return used
