#!/usr/bin/env python3
"""Cloud-native features on PVM: THP, ballooning, and PCID in action.

The paper builds PVM on KVM partly to inherit "advanced cloud-native
features (e.g., hotplugging, memory balloon, large pages, and virtio)"
(§6).  This example exercises three of them end to end:

1. **Transparent huge pages** — one 2 MiB mapping replaces 512 faults,
   collapsing PVM's shadow-paging overhead on allocation-heavy code.
2. **Memory ballooning** — the host reclaims guest memory through
   virtio-balloon, with the shadow state invalidated via the rmap.
3. **PCID mapping under context switching** — the §3.3.2 optimization
   in its natural habitat: a token ring of processes on one vCPU.

Run:  python examples/cloud_features.py
"""

from repro import make_machine
from repro.hw.types import MIB
from repro.hypervisors.base import MachineConfig
from repro.workloads.ctxswitch import measure_hop_ns


def show_thp() -> None:
    print("=== Transparent huge pages (alloc + touch 8 MiB) " + "=" * 12)
    for scenario in ("kvm-ept (NST)", "pvm (NST)"):
        row = {}
        for thp in (False, True):
            m = make_machine(scenario, config=MachineConfig(thp=thp))
            ctx = m.new_context()
            proc = m.spawn_process()
            vma = m.mmap(ctx, proc, 8 * MIB)
            t0 = ctx.clock.now
            for vpn in range(vma.start_vpn, vma.end_vpn):
                m.touch(ctx, proc, vpn, write=True)
            row["thp" if thp else "4k"] = (ctx.clock.now - t0) / 1e6
        print(f"{scenario:16s} 4K pages: {row['4k']:7.2f} ms   "
              f"THP: {row['thp']:6.2f} ms   "
              f"({row['4k'] / row['thp']:.0f}x fewer fault dances)")
    print()


def show_balloon() -> None:
    print("=== virtio-balloon reclamation " + "=" * 30)
    # A small guest so the balloon reaches previously-used (host-backed)
    # frames rather than never-touched ones.
    m = make_machine("pvm (NST)", config=MachineConfig(guest_mem_bytes=8 * MIB))
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 4 * MIB)
    for vpn in range(vma.start_vpn, vma.end_vpn):
        m.touch(ctx, proc, vpn, write=True)
    m.munmap(ctx, proc, vma)  # guest frees; host backing lingers
    host_before = m.host_phys.used_frames
    got = m.balloon.inflate(ctx, 8 * MIB)
    print(f"ballooned {got} pages; host frames released: "
          f"{m.balloon.host_frames_released} "
          f"(host usage {host_before} -> {m.host_phys.used_frames})")
    m.balloon.deflate(ctx, 8 * MIB)
    print(f"deflated; guest free frames restored, "
          f"balloon holds {m.balloon.held_pages} pages\n")


def show_pcid_ring() -> None:
    print("=== PCID mapping under context switches (token ring) " + "=" * 8)
    for pcid in (True, False):
        m = make_machine("pvm (NST)", config=MachineConfig(pcid_mapping=pcid))
        hop = measure_hop_ns(m, nprocs=4, hops=48)
        flushes = m.events.tlb_flushes["vpid"]
        label = "with PCID mapping" if pcid else "without (VPID flushes)"
        print(f"{label:24s} per-hop {hop / 1000:6.2f} us, "
              f"{flushes} whole-VPID flushes")
    print()


def main() -> None:
    show_thp()
    show_balloon()
    show_pcid_ring()
    print("All three run unmodified on PVM because it *is* KVM underneath —")
    print("the deployability argument of §6.")


if __name__ == "__main__":
    main()
