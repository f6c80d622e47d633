"""Unit tests for PCID mapping (§3.3.2) and the fine-grained SPT locks."""

from collections import defaultdict

import pytest

from repro import make_machine
from repro.core.pcid import PcidMapper
from repro.core.sptlocks import SptLockManager
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.types import (
    PAGE_SIZE,
    PVM_GUEST_KERNEL_PCID_BASE,
    PVM_GUEST_PCIDS_PER_CLASS,
    PVM_GUEST_USER_PCID_BASE,
)
from repro.hypervisors.base import MachineConfig
from repro.sim.clock import Clock
from repro.sim.locks import SimLock


class TestPcidMapper:
    def test_windows(self):
        m = PcidMapper(vpid=1)
        k = m.asid_for(guest_pcid=3, kernel_half=True)
        u = m.asid_for(guest_pcid=3, kernel_half=False)
        assert PVM_GUEST_KERNEL_PCID_BASE <= k.pcid < (
            PVM_GUEST_KERNEL_PCID_BASE + PVM_GUEST_PCIDS_PER_CLASS)
        assert PVM_GUEST_USER_PCID_BASE <= u.pcid < (
            PVM_GUEST_USER_PCID_BASE + PVM_GUEST_PCIDS_PER_CLASS)
        assert k.pcid != u.pcid

    def test_stable_mapping(self):
        m = PcidMapper(vpid=1)
        a1 = m.asid_for(5, False)
        a2 = m.asid_for(5, False)
        assert a1 == a2

    def test_distinct_processes_distinct_pcids(self):
        m = PcidMapper(vpid=1)
        pcids = {m.asid_for(i, False).pcid for i in range(8)}
        assert len(pcids) == 8

    def test_disabled_collapses_to_zero(self):
        m = PcidMapper(vpid=1, enabled=False)
        assert m.asid_for(5, False).pcid == 0
        assert m.asid_for(9, True).pcid == 0

    def test_window_recycling_lru(self):
        m = PcidMapper(vpid=1)
        # Fill the user window.
        first = m.asid_for(0, False).pcid
        for i in range(1, PVM_GUEST_PCIDS_PER_CLASS):
            m.asid_for(i, False)
        # Touch pcid 0 so it is no longer LRU.
        m.asid_for(0, False)
        # Overflow: steals the LRU (guest pcid 1), not 0.
        stolen = m.asid_for(PVM_GUEST_PCIDS_PER_CLASS, False).pcid
        assert m.recycled == 1
        assert m.asid_for(0, False).pcid == first

    def test_live_mappings(self):
        m = PcidMapper(vpid=1)
        m.asid_for(1, True)
        m.asid_for(1, False)
        assert m.live_mappings == 2


class TestSptLockManager:
    def test_fine_grained_parallel_across_keys(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=True)
        c1, c2 = Clock(), Clock()
        locks.locked_fix(c1, pt_key="a", gfn=1, work_ns=1000)
        locks.locked_fix(c2, pt_key="b", gfn=2, work_ns=1000)
        # Different keys: no cross-waiting (identical finish times).
        assert c1.now == c2.now

    def test_fine_grained_contends_same_key(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=True)
        c1, c2 = Clock(), Clock()
        locks.locked_fix(c1, pt_key="a", gfn=1, work_ns=1000)
        locks.locked_fix(c2, pt_key="a", gfn=1, work_ns=1000)
        assert c2.now > c1.now  # waited on pt/rmap locks

    def test_global_serializes_everything(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=False)
        c1, c2 = Clock(), Clock()
        locks.locked_fix(c1, pt_key="a", gfn=1, work_ns=1000)
        locks.locked_fix(c2, pt_key="b", gfn=2, work_ns=1000)
        assert c2.now > c1.now  # mmu_lock is global

    def test_global_holds_work_inside_lock(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=False)
        c = Clock()
        locks.locked_fix(c, "a", 1, work_ns=1000)
        # The whole fix is one mmu_lock section, held until it ends.
        assert c.now == locks.mmu_lock.free_at == (
            DEFAULT_COSTS.mmu_lock_op + DEFAULT_COSTS.mmu_lock_hold + 1000)

    def test_fine_grained_work_outside_locks(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=True)
        c = Clock()
        locks.locked_fix(c, "a", 1, work_ns=1000)
        # The work runs first, lock-free; each lock is then held only
        # for its short critical section.
        section = (DEFAULT_COSTS.finegrained_lock_op
                   + DEFAULT_COSTS.finegrained_lock_hold)
        assert locks.pt_locks.get("a").free_at == 1000 + section
        assert locks.rmap_locks.get(1).free_at == c.now == 1000 + 2 * section

    def test_meta_lock_only_for_structural(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=True)
        locks.locked_fix(Clock(), "a", 1, work_ns=0, structural=False)
        assert locks.meta_lock.acquisitions == 0
        locks.locked_fix(Clock(), "a", 1, work_ns=0, structural=True)
        assert locks.meta_lock.acquisitions == 1

    def test_negative_work_rejected(self):
        locks = SptLockManager(DEFAULT_COSTS)
        with pytest.raises(ValueError):
            locks.locked_fix(Clock(), "a", 1, work_ns=-5)

    def test_aggregates_and_reset(self):
        locks = SptLockManager(DEFAULT_COSTS, fine_grained=True)
        locks.locked_fix(Clock(), "a", 1, work_ns=10, structural=True)
        assert locks.acquisitions == 3  # meta + pt + rmap
        locks.reset()
        assert locks.acquisitions == 0
        assert locks.total_wait_ns == 0


@pytest.fixture
def returned_waits(monkeypatch):
    """Every wait ``SimLock.run_locked`` returns, listed by lock name."""
    waits = defaultdict(list)
    run_locked = SimLock.run_locked

    def recording(lock, *args, **kwargs):
        wait = run_locked(lock, *args, **kwargs)
        waits[lock.name].append(wait)
        return wait

    monkeypatch.setattr(SimLock, "run_locked", recording)
    return waits


def _assert_waits_recorded(events, waits):
    """``lock_wait_ns`` holds each lock's summed waits; locks that never
    waited record nothing."""
    assert any(sum(w) for w in waits.values())
    assert any(0 in w for w in waits.values())
    expected = {name: sum(w) for name, w in waits.items() if sum(w)}
    assert events.lock_wait_ns == expected
    assert events.lock_wait_ns.total == sum(expected.values())


@pytest.mark.parametrize("scenario", ["kvm-ept (NST)", "kvm-spt (NST)"])
def test_l0_lock_waits_match_run_locked(returned_waits, scenario):
    """Two vCPUs' nested legs contend on the L0 service lock."""
    m = make_machine(scenario)
    c1, c2 = m.new_context(), m.new_context()
    for _ in range(5):
        m.hypercall(c1)
        m.deliver_timer(c2)
        m.virtio_doorbell(c1)
        m.halt(c2, 1000)
    assert "l0-service" in m.events.lock_wait_ns
    _assert_waits_recorded(m.events, returned_waits)


@pytest.mark.parametrize("fine_grained", [True, False])
def test_spt_lock_waits_match_run_locked(returned_waits, fine_grained):
    """Two vCPUs' trapped guest PTE writes contend on PVM's SPT locks
    (meta/pt/rmap, or the global lock without the fine-grained split)."""
    m = make_machine("pvm (BM)", config=MachineConfig(
        fine_grained_locks=fine_grained))
    c1, c2 = m.new_context(), m.new_context()
    proc = m.spawn_process()
    for _ in range(3):
        m.priced_gpt_writes(c1, proc, 4, structural=True)
        m.priced_gpt_writes(c2, proc, 4, structural=True)
    keys = set(m.events.lock_wait_ns)
    assert keys and all(k.startswith("pvm-") for k in keys)
    _assert_waits_recorded(m.events, returned_waits)


@pytest.mark.xfail(strict=True, reason=(
    "a recycled TLB tag keeps its previous owner's entries (ROADMAP "
    "item 1)"))
@pytest.mark.parametrize("scenario", [
    "kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)", "kvm-ept (NST)",
    "kvm-spt (NST)", "pvm (NST)", "pvm-dp (NST)"])
def test_recycled_tlb_tag_serves_no_stale_translation(scenario):
    """70 live processes each write the first page of a fresh 4-page
    VMA, so some TLB tag must serve two of them: PVM maps 16 hardware
    PCIDs per class and steals the least recently used one, and a KVM
    guest's PCIDs are ``pid % 64``.  Every write must still fault in the
    writer's own table and land in a frame of its own."""
    m = make_machine(scenario)
    ctx = m.new_context()
    frames = set()
    for _ in range(70):
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 4 * PAGE_SIZE)
        frames.add(m.touch(ctx, proc, vma.start_vpn, write=True))
        assert proc.gpt.lookup(vma.start_vpn) is not None
    assert len(frames) == 70
