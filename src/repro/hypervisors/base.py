"""The deployment-scenario abstraction shared by every stack.

A :class:`Machine` is one of the paper's five secure-container
deployment scenarios.  Workloads and the container runtime program
against its API — ``compute``, ``syscall``, ``touch``, ``mmap``,
``fork``, ``halt``, the Table-1 privileged micro-ops — and each concrete
machine implements the architectural dances behind them: how a
user/kernel transition is priced, what happens on a guest page fault,
who gets trapped by a guest page-table write.

Concurrency: each workload task runs on its own :class:`CpuCtx`
(clock + private TLB + MMU), while locks, the host's root-mode service,
and the shadow/extended page tables are shared machine state, so
contention emerges from the engine's earliest-clock interleaving.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.guest.addrspace import SegfaultError, Vma  # noqa: F401 (re-exported)
from repro.guest.kernel import ForkWork, GptFix, GuestKernel
from repro.guest.process import Process
from repro.guest.syscalls import SYSCALLS, syscall as lookup_syscall
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.events import EventLog, FaultPhase, SwitchKind, TraceEvent
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PageTable
from repro.hw.psc import PagingStructureCache
from repro.hw.tlb import Tlb
from repro.hw.types import (
    MIB,
    AccessType,
    Asid,
    AsidTable,
    PageFault,
    asid_key,
)
from repro.hypervisors.chain import MemoryChain
from repro.sim.clock import Clock
from repro.sim.locks import SimLock

#: Cap on one access's fault-retry loop; a correct machine never hits it.
MAX_FAULT_RETRIES = 16

_READ = AccessType.READ
_WRITE = AccessType.WRITE
#: Counter keys of the switch legs and faults (the kinds' values).
_KEY_L1_L0 = SwitchKind.HW_L1_L0.value
_KEY_GUEST = SwitchKind.GUEST_INTERNAL.value
_KEY_GUEST_PT = FaultPhase.GUEST_PT.value


@dataclass
class MachineConfig:
    """Tunable knobs shared by all machines (ablations override these)."""

    kpti: bool = True
    #: Transparent huge pages in the guest kernel (2 MiB anonymous
    #: mappings).  Honoured only by machines whose paging design can
    #: back huge mappings (``Machine.supports_thp``).
    thp: bool = False
    #: Guest memory per machine; scaled down from the paper's testbed.
    guest_mem_bytes: int = 512 * MIB
    host_mem_bytes: int = 2048 * MIB
    tlb_capacity: int = 1536
    #: Paging-structure caches (PML4E/PDPTE/PDE caches + nested GPA
    #: cache).  Off by default so virtual-time numbers stay bit-identical
    #: to the seed model; experiments opt in to study partial walks.
    psc: bool = False
    # -- PVM optimization toggles (ignored by KVM machines) -------------
    direct_switch: bool = True
    prefault: bool = True
    pcid_mapping: bool = True
    fine_grained_locks: bool = True
    # -- PVM future-work extensions (§5), off by default -----------------
    #: Advanced direct switching: sysret completes at h_ring3, saving
    #: the h_ring0 exit on the syscall return path.
    advanced_direct_switch: bool = False
    #: The switcher distinguishes guest-PT faults from shadow-PT faults
    #: and injects the former straight back into L2, saving one exit to
    #: the PVM hypervisor.
    switcher_fault_triage: bool = False
    #: Write-protection-less synchronization: the guest and hypervisor
    #: build page tables collaboratively; GPT writes no longer trap and
    #: the dirty entries are synchronized in batch on the iret path.
    wp_less_sync: bool = False
    # -- runtime sanitizers (repro.sanitize) ------------------------------
    #: Attach the runtime-invariant sanitizers (shadow coherence,
    #: lockdep, VMX state machine).  Off by default: checks charge no
    #: virtual time, but they cost host CPU.  Also switchable via the
    #: ``PVM_SANITIZE`` environment variable (``1``/``sampled``/``full``).
    sanitize: bool = False
    #: "sampled" cross-checks a deterministic subset of TLB entries per
    #: sync; "full" audits every cached entry after every SPT fix/zap.
    sanitize_mode: str = "sampled"


@dataclass
class CpuCtx:
    """One virtual CPU's execution context: clock + private TLB."""

    cpu_id: int
    clock: Clock
    tlb: Tlb
    mmu: Mmu
    #: Virtual time of the last timer tick delivered on this context.
    last_timer: int = 0


class Machine(abc.ABC):
    """Base class for the five deployment scenarios."""

    #: Scenario label as used in the paper's figures ("kvm-ept (BM)", ...).
    name: str = "abstract"
    #: True for 2-level nested scenarios.
    nested: bool = False
    #: Whether this paging design can back 2 MiB guest mappings.
    supports_thp: bool = True
    #: PVM's fine-grained SPT lock manager; None on the other machines.
    locks = None
    #: Extended tables this machine prices (kvm-ept's EPT01, EPT12 and
    #: EPT02 on kvm-ept (NST)), in the order they are zapped.
    priced_epts: Tuple[PageTable, ...] = ()
    #: The priced extended table the hardware walks.  None elsewhere:
    #: the hardware then walks the chain's warm EPT01, if there is one.
    walked_ept: Optional[PageTable] = None
    #: The memory chain's shape: whether an L1 VM level (``l1_phys``)
    #: sits between guest and host frames, and whether the chain owns
    #: the warm EPT01 of an L0 below an L1 guest hypervisor.
    l1_level: bool = False
    warm_ept01: bool = False

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        events: Optional[EventLog] = None,
        host_phys: Optional[PhysicalMemory] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.costs = costs
        self.events = events = events or EventLog()
        # Hot paths count in place, in counters bound here (see
        # ``Counter``), and append to the trace when the log is detailed.
        self._switch_counts = events.world_switches
        self._guest_counts = events.guest_transitions
        self._l0_counts = events.l0_exits
        self._fault_counts = events.page_faults
        self._emulation_counts = events.emulations
        self._interrupt_counts = events.interrupts
        self._trace = events.trace if events.detailed else None
        # Switch-leg costs, read once: the CostModel validated them as
        # non-negative ints, so the legs add them to ``clock.now``
        # directly instead of going through ``Clock.advance``.
        self._hw_switch_ns = costs.hw_world_switch
        self._kpti_ns = costs.kpti_syscall_overhead if self.config.kpti else 0
        #: Handler cost of one VT-x-trapped privileged operation.
        self.vmx_handler_ns = {
            "hypercall": costs.hypercall_handler,
            "exception": costs.exception_handler,
            "msr": costs.msr_handler,
            "cpuid": costs.cpuid_handler,
            "pio": costs.pio_handler,
        }
        # A shared pool (memory-QoS fleets overcommitting one host)
        # may be passed in; by default each machine owns its host RAM.
        self.host_phys = host_phys or PhysicalMemory(
            "host", self.config.host_mem_bytes
        )
        self.guest_phys = self._guest_ram()
        self.kernel = GuestKernel(
            self.guest_phys, costs, kpti=self.config.kpti, name=self.name,
            thp=self.config.thp and self.supports_thp,
        )
        #: The guest's VPID in the host TLB hierarchy.
        self.vpid = 1
        self._asids = AsidTable(self.vpid)
        self.contexts: List[CpuCtx] = []
        #: Root-mode service lock: L0's handling of exits is serialized
        #: per host resource (VMCS merge, EPT02 updates share this).
        self.l0_lock = SimLock("l0-service", self.events)
        #: Guest-kernel-internal serialization of process creation (pid
        #: table, anon rmap, zone locks) — a property of the guest
        #: kernel, identical across platforms; drives the fork-family
        #: degradation every configuration shows at high concurrency.
        self.guest_fork_lock = SimLock("guest-fork", self.events)
        #: Fault-injection plan consulted by the I/O stack and the
        #: container supervisor (None = no faults, zero-cost paths).
        self.fault_plan = None
        #: The L1 VM's guest-physical space, on chains with an L1 level.
        self.l1_phys = (PhysicalMemory("l1-vm", self.config.host_mem_bytes)
                        if self.l1_level else None)
        #: How guest frames reach host frames (the "memslot" mappings).
        self.memory = MemoryChain(self.host_phys, self.events,
                                  l1_phys=self.l1_phys,
                                  warm_ept01=self.warm_ept01)
        #: Shadow page tables (:class:`repro.core.shadow.ShadowManager`)
        #: on shadow-paging machines; None where hardware walks the GPT.
        self.shadow = None
        #: Base gfns of 2 MiB guest allocations (for huge EPT/shadow fills).
        self._huge_gfn_bases: set = set()
        #: Runtime-sanitizer suite (:class:`repro.sanitize.SanitizerSuite`)
        #: or None.  Attached lazily at the first ``new_context`` so
        #: subclass state (locks, VMCS shadows, shared l0_lock rebinding)
        #: exists before the checkers wire into it.
        self.sanitizers = None
        self._sanitize_checked = False

    def _guest_ram(self) -> PhysicalMemory:
        """The physical space the guest kernel allocates from.

        Guest RAM streams: the guest kernel prefers fresh frames, so the
        paper's alloc/touch benchmarks keep faulting on new
        guest-physical pages (see FrameAllocator policy docs).
        """
        return PhysicalMemory("guest", self.config.guest_mem_bytes,
                              policy="stream")

    # ------------------------------------------------------------------
    # context / process management
    # ------------------------------------------------------------------

    def new_context(self) -> CpuCtx:
        """Create one vCPU context (clock + private TLB [+ PSC])."""
        if not self._sanitize_checked:
            self._sanitize_checked = True
            self._maybe_attach_sanitizers()
        cpu_id = len(self.contexts)
        tlb = Tlb(self.config.tlb_capacity)
        psc = PagingStructureCache() if self.config.psc else None
        ctx = CpuCtx(
            cpu_id=cpu_id,
            clock=Clock(),
            tlb=tlb,
            mmu=Mmu(tlb, self.events, self.costs, psc=psc),
        )
        if self.sanitizers is not None:
            ctx.mmu.sanitizer = self.sanitizers.shadow
        self.contexts.append(ctx)
        return ctx

    def vmcs02(self):
        """The VMCS02 shadow (:class:`repro.hw.vmx.VmcsShadow`) of
        nested-VT-x machines; None elsewhere."""
        return None

    def lockdep_classes(self) -> List[Tuple[SimLock, str]]:
        """Singleton locks lockdep tracks, with their class names."""
        return [(self.l0_lock, "l0-service"),
                (self.guest_fork_lock, "guest-fork")]

    def _maybe_attach_sanitizers(self) -> None:
        """Attach the sanitizer suite when config or env asks for it."""
        from repro.sanitize import attach_sanitizers, resolve_mode

        mode = resolve_mode(self.config)
        if mode is not None:
            attach_sanitizers(self, mode=mode)

    def spawn_process(self, vmas: Optional[List[Vma]] = None) -> Process:
        """Create the guest's next process."""
        return self.kernel.create_process(vmas)

    def fault_body_ns(self, proc: Process, fix: GptFix) -> int:
        """Guest kernel work for one fault fix (shared across stacks).

        Also records huge allocations so the extended/shadow dimension
        can back them with huge entries.
        """
        if fix.huge:
            self._huge_gfn_bases.add(fix.pte.frame)
            return self.costs.minor_fault_body + self.costs.thp_fault_extra
        if fix.cow_break:
            return self.costs.minor_fault_body + self.costs.cow_copy
        if fix.file_backed:
            return self.costs.file_fault_body
        return self.costs.minor_fault_body

    def huge_block_base(self, gfn: int):
        """The 2 MiB guest block containing ``gfn``, if one exists."""
        base = gfn - (gfn % 512)
        return base if base in self._huge_gfn_bases else None

    def asid_for(self, proc: Process, kernel_half: bool = False) -> Asid:
        """TLB tag for a process (PVM overrides to apply PCID mapping)."""
        return self._asids[proc.pcid]

    # -- read-only oracle (sanitizers) -------------------------------------

    def expected_frame(self, proc: Process, vpn: int) -> Optional[int]:
        """Host frame a fresh walk of the guest table through the memory
        chain gives for ``vpn``, or None when unmapped or unbacked.

        Reference semantics for every machine, whatever tables it keeps:
        read-only, allocates nothing, charges nothing.
        """
        pte = proc.gpt.lookup(vpn)
        if pte is None:
            return None
        hfn = self.memory.peek(pte.frame)
        if hfn is None or not pte.huge:
            return hfn
        return hfn + vpn % 512

    def tlb_tag(self, proc: Process) -> Optional[int]:
        """Packed user-half TLB tag of ``proc``, read without side
        effects, or None when it has none yet."""
        return asid_key(self.vpid, proc.pcid)

    def tlb_owners(self) -> Dict[int, Process]:
        """Packed TLB tag -> the one live process it names.  Tags shared
        by several processes are left out: their entries cannot be
        attributed."""
        owners: Dict[int, Process] = {}
        shared = set()
        for proc in self.kernel.processes.values():
            tag = self.tlb_tag(proc) if proc.alive else None
            if tag is None:
                continue
            if tag in owners:
                shared.add(tag)
            owners[tag] = proc
        for tag in shared:
            del owners[tag]
        return owners

    # ------------------------------------------------------------------
    # workload-facing API
    # ------------------------------------------------------------------

    def compute(self, ctx: CpuCtx, ns: int) -> None:
        """Burn ``ns`` of guest user-mode CPU, absorbing timer interrupts."""
        if ns < 0:
            raise ValueError("compute time must be non-negative")
        end = ctx.clock.now + ns
        interval = self.costs.timer_interval
        while True:
            next_tick = ctx.last_timer + interval
            if next_tick > end:
                break
            ctx.clock.advance_to(next_tick)
            ctx.last_timer = next_tick
            self.deliver_timer(ctx)
        ctx.clock.advance_to(end)

    def syscall(self, ctx: CpuCtx, proc: Process, name: str) -> None:
        """Execute one named syscall: transition + kernel body."""
        try:
            spec = SYSCALLS[name]
        except KeyError:
            spec = lookup_syscall(name)  # raises, naming the known ones
        self._syscall_round_trip(ctx, proc)
        ctx.clock.now += spec.body_ns  # validated by Syscall
        if spec.extra_transitions:
            for _ in range(spec.extra_transitions):
                self._syscall_round_trip(ctx, proc)
        if spec.pte_writes:
            self.priced_gpt_writes(ctx, proc, spec.pte_writes, kernel_pages=True)

    def touch(self, ctx: CpuCtx, proc: Process, vpn: int, write: bool = False) -> int:
        """Access one user page, handling any faults per-architecture.

        Returns the host frame finally backing the page.  Each failed
        translation is dispatched on its descriptor's type: a guest
        :class:`PageFault` or a priced :class:`EptViolation`.
        """
        access = _WRITE if write else _READ
        mmu = ctx.mmu
        for attempt in range(MAX_FAULT_RETRIES):
            frame = self.translate(ctx, proc, vpn, access)
            if frame >= 0:
                if attempt and self.sanitizers is not None:
                    # Faults were serviced: audit the translation state
                    # they changed, whatever tables this machine keeps.
                    self.sanitizers.shadow.after_fault()
                return frame
            fault = mmu.fault
            if type(fault) is PageFault:
                try:
                    self.on_guest_fault(ctx, proc, fault)
                except SegfaultError:
                    # Unservable fault: the guest kernel delivers SIGSEGV
                    # to the process (lmbench's prot-fault path).
                    self.on_segfault(ctx, proc)
                    raise
            else:
                self.on_ept_violation(ctx, proc, fault)
        raise RuntimeError(
            f"{self.name}: fault loop did not converge for vpn {vpn:#x}"
        )

    def mmap(self, ctx: CpuCtx, proc: Process, length_bytes: int,
             writable: bool = True, kind: str = "anon",
             file_key: Optional[str] = None) -> Vma:
        """Guest mmap syscall (lazy; pages fault in on touch)."""
        self._syscall_round_trip(ctx, proc)
        ctx.clock.advance(self.costs.syscall_dispatch + 300)
        return self.kernel.sys_mmap(
            proc, length_bytes, writable=writable, kind=kind, file_key=file_key
        )

    def munmap(self, ctx: CpuCtx, proc: Process, vma: Vma) -> None:
        """Guest munmap syscall: VMA + PTE + shadow teardown."""
        self._syscall_round_trip(ctx, proc)
        ctx.clock.advance(self.costs.syscall_dispatch + 300)
        work = self.kernel.sys_munmap(proc, vma)
        if work.entry_writes:
            self.priced_gpt_writes(ctx, proc, work.entry_writes)
            self.invalidate_pages(ctx, proc, work.vpns)

    def mprotect(self, ctx: CpuCtx, proc: Process, vma: Vma, writable: bool) -> None:
        """Guest mprotect syscall with shadow/TLB invalidation."""
        self._syscall_round_trip(ctx, proc)
        writes = self.kernel.sys_mprotect(proc, vma, writable)
        if writes:
            self.priced_gpt_writes(ctx, proc, writes)
            vpns = tuple(range(vma.start_vpn, vma.end_vpn))
            self.invalidate_pages(ctx, proc, vpns)

    def fork(self, ctx: CpuCtx, proc: Process) -> Process:
        """Fork: page-table-heavy and touch-free (paper §4.2's fork rows)."""
        self._syscall_round_trip(ctx, proc)
        work: ForkWork = self.kernel.sys_fork(proc)
        ctx.clock.advance(self.costs.fork_body)
        # Per-page duplication work runs under the guest kernel's own
        # process-creation serialization.
        self.guest_fork_lock.run_locked(
            ctx.clock, hold_ns=work.pages_shared * self.costs.fork_per_page
        )
        total_writes = work.parent_writes + work.child_writes
        if total_writes:
            self.priced_gpt_writes(ctx, proc, total_writes, structural=True)
        if work.parent_writes:
            # Parent pages were downgraded to read-only: stale writable
            # translations must go.
            self.invalidate_asid(ctx, proc)
        self.on_process_created(ctx, work.child)
        return work.child

    def exec(self, ctx: CpuCtx, proc: Process, image_pages: int = 64) -> None:
        """Guest exec: image teardown + fresh VMAs + demand faults."""
        self._syscall_round_trip(ctx, proc)
        work = self.kernel.sys_exec(proc, image_pages=image_pages)
        ctx.clock.advance(self.costs.exec_body)
        if work.entry_writes:
            self.priced_gpt_writes(ctx, proc, work.entry_writes)
        self.invalidate_asid(ctx, proc)
        self.on_process_reset(ctx, proc)
        # Fault in the fresh image (text+data) — demand paging.
        for vma in list(proc.addr_space):
            for vpn in range(vma.start_vpn, min(vma.end_vpn, vma.start_vpn + 8)):
                self.touch(ctx, proc, vpn, write=vma.writable)

    def exit(self, ctx: CpuCtx, proc: Process) -> None:
        """Guest process exit: full teardown."""
        self._syscall_round_trip(ctx, proc)
        n_pages = proc.gpt.mapped_pages
        self.kernel.exit_process(proc)
        ctx.clock.advance(self.costs.syscall_dispatch + n_pages * 40)
        self.invalidate_asid(ctx, proc)
        self.on_process_destroyed(ctx, proc)

    def context_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Guest scheduler switches processes (CR3 load)."""
        ctx.clock.advance(self.costs.context_switch)
        self.on_cr3_switch(ctx, from_proc, to_proc)

    # -- paravirtual I/O ---------------------------------------------------

    @property
    def io(self):
        """The machine's paravirtual I/O stack (virtio-blk + vhost-net)."""
        stack = getattr(self, "_io_stack", None)
        if stack is None:
            from repro.io.devices import IoStack

            stack = self._io_stack = IoStack(self)
        return stack

    def blk_read(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Block read through the paravirtual I/O stack."""
        return self.io.blk_request(ctx, nbytes, write=False)

    def blk_write(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Block write through the paravirtual I/O stack."""
        return self.io.blk_request(ctx, nbytes, write=True)

    def net_send(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Transmit; see the shared request path."""
        return self.io.net_send(ctx, nbytes)

    def net_recv(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Receive; see the shared request path."""
        return self.io.net_recv(ctx, nbytes)

    @property
    def balloon(self):
        """The machine's virtio-balloon device (created lazily)."""
        dev = getattr(self, "_balloon", None)
        if dev is None:
            from repro.io.balloon import BalloonDevice

            dev = self._balloon = BalloonDevice(self)
        return dev

    def discard_gfn_backing(self, gfn: int) -> bool:
        """Drop the host backing of one ballooned guest frame.

        Returns True when a host frame was actually released.  Frames
        inside 2 MiB-backed runs are skipped (splitting huge backing is
        not worth one page).  Entries naming the frame are zapped first:
        those of the priced extended tables, and shadow entries (via the
        reverse map) with their cached translations.
        """
        if self.huge_block_base(gfn) is not None:
            return False
        for table in self.priced_epts:
            pte = table.lookup(gfn)
            if pte is not None and not pte.huge:
                table.unmap(gfn)
        if self.shadow is not None:
            for pid, half, vpn in sorted(self.shadow.entries_for_gfn(gfn)):
                proc = self.kernel.processes.get(pid)
                if proc is None:
                    continue
                self.shadow.unmap(proc, vpn)
                # Scrub cached translations of the zapped entry: a TLB
                # hit after the host frame is reused would read someone
                # else's memory.  Raw flush (no clock charge) — reclaim
                # work is priced by the balloon device, not here.
                asid = self.asid_for(proc, kernel_half=(half == "kernel"))
                for cpu in self.contexts:
                    cpu.tlb.flush_page(asid, vpn)
        return self.memory.discard(gfn)

    # -- memory QoS (working-set estimation + reclaim support) -----------

    def accessed_bit_tables(self, proc: Process) -> List:
        """Page tables whose leaf A-bits the walker sets for ``proc``.

        The hardware walker marks accessed/dirty in whatever table it
        actually walks: the guest table (EPT and direct paging) or the
        shadow tables.  Only *existing* tables are returned — a scan
        must never materialize shadow state.
        """
        if self.shadow is not None:
            return self.shadow.tables_for(proc)
        return [proc.gpt]

    def harvest_working_set(self, ctx: CpuCtx) -> Tuple[int, int]:
        """PML-style A-bit scan-and-clear over every live process.

        Returns ``(accessed_pages, scanned_entries)``.  Each scanned
        leaf entry is charged ``costs.wse_scan_per_entry``, and every
        scanned process is invalidated through the machine's own hook —
        clearing A-bits without flushing would let cached translations
        keep the bits stale, so the scan pays real flushes and the
        guest pays real refaults, exactly like hardware PML.
        """
        accessed = scanned = 0
        for pid in sorted(self.kernel.processes):
            proc = self.kernel.processes[pid]
            proc_scanned = 0
            for table in self.accessed_bit_tables(proc):
                a, s = table.harvest_accessed(clear=True)
                accessed += a
                proc_scanned += s
            scanned += proc_scanned
            if proc_scanned:
                self.invalidate_asid(ctx, proc)
        if scanned:
            ctx.clock.advance(scanned * self.costs.wse_scan_per_entry)
        self.events.memory_pressure["wse-scan"] += 1
        return accessed, scanned

    def resident_guest_pages(self) -> int:
        """Guest pages currently backed by host frames."""
        return self.memory.resident_pages()

    def teardown_guest_memory(self) -> None:
        """Release every host frame backing this guest (eviction path).

        Priced extended tables and shadow tables go first, then the
        memory chain.  Translation caches are left to the supervisor's
        regular crash teardown.
        """
        for table in self.priced_epts:
            table.destroy()
        if self.shadow is not None:
            self.shadow.drop_all()
        self.memory.teardown()
        self._huge_gfn_bases.clear()

    def virtio_doorbell(self, ctx: CpuCtx) -> None:
        """Guest kicks a virtqueue: one exit to the vhost backend.

        Default (single-level VMX): a hardware round trip to the host's
        vhost worker.  Nested machines override with their switch paths.
        """
        self._hw_round_trip(ctx, "virtio-doorbell",
                            self.costs.virtio_doorbell_handler)

    def deliver_device_irq(self, ctx: CpuCtx) -> None:
        """Completion interrupt: rides the same path as the timer."""
        self.deliver_timer(ctx)
        self._interrupt_counts["virtio"] += 1

    # -- Table 1 privileged micro-operations -----------------------------

    def hypercall(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: hypercall round trip."""
        self._privileged(ctx, "hypercall")

    def exception(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: invalid-opcode exception round trip."""
        self._privileged(ctx, "exception")

    def msr_access(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: MSR access round trip."""
        self._privileged(ctx, "msr")

    def cpuid(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: CPUID round trip."""
        self._privileged(ctx, "cpuid")

    def pio(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: port I/O round trip."""
        self._privileged(ctx, "pio")

    # ------------------------------------------------------------------
    # architecture-specific machinery
    # ------------------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt: the frame, or -1 with the
        fault descriptor in ``ctx.mmu.fault``.

        The hardware walks the shadow table (or, without one, the
        guest's own table) nested over whichever extended table it
        walks.  Violations on a priced table go back to :meth:`touch`
        for :meth:`on_ept_violation`; those on the chain's warm EPT01
        are filled here.
        """
        mmu = ctx.mmu
        ept = self.walked_ept
        if ept is not None:
            # A priced EPT means no shadow: the guest's table is walked.
            return mmu.access_2d(ctx.clock, self.asid_for(proc), proc.gpt,
                                 ept, vpn, access, True)
        table = (self.shadow.spt(proc, "user") if self.shadow is not None
                 else proc.gpt)
        asid = self.asid_for(proc)
        ept01 = self.memory.ept01
        if ept01 is None:
            return mmu.access_1d(ctx.clock, asid, table, vpn, access, True)
        while True:
            frame = mmu.access_2d(ctx.clock, asid, table, ept01, vpn,
                                  access, True)
            if frame >= 0 or type(mmu.fault) is PageFault:
                return frame
            # Warm-EPT01 assumption (§2.2, §4.1): the L1 VM has been
            # up for hours; L0 fills violations below our notice.
            self.memory.warm_fill(mmu.fault.gpa >> 12)

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Guest #PF on a hardware-walked guest table: handled entirely
        inside the guest, no exit — one guest-internal switch in, one
        (the iret) out.  Shadow and direct paging override."""
        clock = ctx.clock
        counts = self._guest_counts
        trace = self._trace
        counts[_KEY_GUEST] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_GUEST))
        # The costs are validated non-negative ints (see ``CostModel``).
        clock.now += self.costs.pf_delivery
        vpn = fault.vaddr >> 12
        fix = self.kernel.fix_fault(proc, vpn, fault.access,
                                    proc.gpt.lookup(vpn))
        clock.now += (self.fault_body_ns(proc, fix)
                      + fix.entry_writes * self.costs.pte_write)
        counts[_KEY_GUEST] += 1
        self._fault_counts[_KEY_GUEST_PT] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_GUEST))
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "fault",
                                    _KEY_GUEST_PT))

    def on_ept_violation(self, ctx: CpuCtx, proc: Process, violation) -> None:
        """Extended-dimension fault dance of machines that price one."""
        raise AssertionError(
            f"{self.name}: no priced extended dimension to fault on")

    @abc.abstractmethod
    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Charge whatever the platform charges for guest PTE writes.

        ``structural`` marks bulk table construction (fork/exec), whose
        shadow-side bookkeeping touches inter-shadow-page structure."""

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """User -> kernel -> user transition for one syscall: inside a
        hardware-paged guest it never exits (KPTI adds its CR3 work)."""
        clock = ctx.clock
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_GUEST))
        clock.now += self._kpti_ns
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_GUEST))
        self._guest_counts[_KEY_GUEST] += 2

    @abc.abstractmethod
    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        """One privileged guest operation round trip (Table 1)."""

    @abc.abstractmethod
    def deliver_timer(self, ctx: CpuCtx) -> None:
        """External timer interrupt while the guest runs."""

    @abc.abstractmethod
    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT + wakeup after ``wake_after_ns`` (blocking sync pattern)."""

    # -- invalidation hooks (default: per-ASID TLB hygiene only) ----------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Zap stale TLB state after unmap/mprotect."""
        vpns = tuple(vpns)
        asid = self.asid_for(proc)
        for vpn in vpns:
            ctx.mmu.flush_page(ctx.clock, asid, vpn)
        self.audit_zap(ctx, proc, vpns)

    def invalidate_asid(self, ctx: CpuCtx, proc: Process) -> None:
        """Flush one process's translations."""
        ctx.mmu.flush_pcid(ctx.clock, self.asid_for(proc))

    def on_segfault(self, ctx: CpuCtx, proc: Process) -> None:
        """Signal delivery for an unservable fault: the kernel builds a
        signal frame and upcalls the user handler (one extra user/kernel
        round trip beyond the fault itself)."""
        ctx.clock.advance(self.costs.pf_delivery)
        self._syscall_round_trip(ctx, proc)  # handler upcall + sigreturn

    def on_cr3_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Default: PCID-tagged hardware needs no flush on CR3 load."""

    def on_process_created(self, ctx: CpuCtx, proc: Process) -> None:
        """Hook for shadow-table setup on fork."""

    def on_process_reset(self, ctx: CpuCtx, proc: Process) -> None:
        """Shadow-table teardown on exec."""
        if self.shadow is not None:
            self.shadow.drop(proc)

    def on_process_destroyed(self, ctx: CpuCtx, proc: Process) -> None:
        """Shadow-table teardown on exit."""
        if self.shadow is not None:
            self.shadow.drop(proc)

    # -- shared plumbing -----------------------------------------------------

    def audit_zap(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Sanitizer hook after ``invalidate_pages`` zapped shadow state."""
        san = self.sanitizers
        if san is not None:
            san.shadow.after_zap(ctx, proc, vpns)

    def hw_exit_entry(self, ctx: CpuCtx, kind: SwitchKind) -> None:
        """One hardware world switch (one direction) of a hardware
        ``kind``."""
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        key = kind._value_
        self._switch_counts[key] += 1
        if self._trace is not None:
            self._trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", key))

    def _hw_round_trip(self, ctx: CpuCtx, reason: str, work_ns: int,
                       lock: Optional[SimLock] = None) -> None:
        """An exit to L0 for ``reason``, ``work_ns`` of root-mode work
        (under ``lock`` when given) and the entry back: two
        ``HW_L1_L0`` switches and one L0 trap.  ``work_ns`` is a
        validated cost."""
        clock = ctx.clock
        clock.now += self._hw_switch_ns
        counts = self._switch_counts
        counts[_KEY_L1_L0] += 1
        self._l0_counts[reason] += 1
        trace = self._trace
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))
        if lock is None:
            clock.now += work_ns
        else:
            lock.run_locked(clock, work_ns)
        clock.now += self._hw_switch_ns
        counts[_KEY_L1_L0] += 1
        if trace is not None:
            trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", _KEY_L1_L0))

    def guest_internal_transition(self, ctx: CpuCtx) -> None:
        """User<->kernel switch fully inside a hardware-paged guest."""
        self._guest_counts[_KEY_GUEST] += 1
        if self._trace is not None:
            self._trace.append(
                TraceEvent(ctx.clock.now, ctx.cpu_id, "switch", _KEY_GUEST))
