"""The nested walk's guest-path memo, and one-pass table teardown.

``Mmu.access_2d`` memoizes, on each indexed guest leaf table, the EPT
entries its node legs reached, valid while the EPT's ``stamp`` is
unchanged.  The property here runs random guest and EPT map, unmap,
protect, frame-update, destroy and accessed-bit-harvest steps between
walks on two identical worlds: one walked by the MMU (memo and all),
one by an oracle built from ``PageTable.walk`` on each dimension.  Every
walk must give the same frame or fault descriptor, the same clock delta
and the same A/D bits.  The named cases pin the invalidations one by
one.

``PageTable.drain`` (process exit and exec, shadow drop) must free
frames in the order page-by-page unmapping does, and leave the table's
counters where it leaves them; guest RAM is a streaming allocator, so
that order is observable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import make_machine
from repro.guest.kernel import UnmapWork
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.events import EventLog
from repro.hw.memory import FrameRange, PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import _STAMP_BITS, HUGE_PAGE_PAGES, PageTable, Pte
from repro.hw.tlb import Tlb
from repro.hw.types import (
    KIB,
    MIB,
    AccessType,
    Asid,
    EptViolation,
    HardwareError,
    PageFault,
)
from repro.hypervisors.base import MachineConfig
from repro.sim.clock import Clock

ASID = Asid(vpid=1, pcid=1)
_READ = AccessType.READ
_WRITE = AccessType.WRITE
STEP_1D = DEFAULT_COSTS.walk_step_1d
STEP_2D = DEFAULT_COSTS.walk_step_2d


# -- the oracle ----------------------------------------------------------------


def oracle_2d(gpt, ept, vpn, access, user):
    """A 2-D miss from two ``PageTable.walk`` s: the guest walk, then one
    EPT walk per guest node frame (a read) and one for the guest leaf
    frame (the access).  Returns the frame or the fault descriptor, and
    the nanoseconds the MMU charges for it."""
    ns = gpt.levels * STEP_2D
    walk = gpt.walk(vpn, access, user)
    if type(walk) is PageFault:
        return walk, ns
    gfns = [node.frame for node in walk.nodes] + [walk.frame]
    for i, gfn in enumerate(gfns):
        leg = access if i == len(gfns) - 1 else _READ
        ns += ept.levels * STEP_1D
        leaf = ept.walk(gfn, leg, user=False)
        if type(leaf) is PageFault:
            return EptViolation(gfn << 12, leg, leaf.level), ns
    return leaf.frame, ns


def mmu_2d(mmu, gpt, ept, vpn, access, user):
    """The same miss through ``Mmu.access_2d`` (TLB flushed first)."""
    mmu.tlb.flush_all()
    clock = Clock()
    frame = mmu.access_2d(clock, ASID, gpt, ept, vpn, access, user)
    return (frame if frame >= 0 else mmu.fault), clock.now


def entries(table):
    """Every leaf entry's state, A/D bits included."""
    return [(vpn, pte.frame, pte.huge, pte.writable, pte.user,
             pte.executable, pte.accessed, pte.dirty)
            for vpn, pte in table.iter_mappings()]


# -- the property ----------------------------------------------------------------


class World:
    """A guest table nested over two extended tables."""

    def __init__(self):
        self.gpt = PageTable(PhysicalMemory("guest", 4 * MIB), "gpt")
        host = PhysicalMemory("host", 16 * MIB)
        self.epts = (PageTable(host, "ept-a"), PageTable(host, "ept-b"))

    def tables(self):
        return (self.gpt, *self.epts)

    def apply(self, op):
        """Run one step; a step the tables refuse returns "refused"."""
        try:
            return self._apply(*op)
        except HardwareError:
            return "refused"

    def _apply(self, kind, *args):
        gpt = self.gpt
        if kind == "gmap":
            vpn, frame, writable, user = args
            if gpt.lookup(vpn) is None:
                gpt.map(vpn, Pte(frame=frame, writable=writable, user=user))
        elif kind == "ghuge":
            region, frame = args
            gpt.map_huge(region * HUGE_PAGE_PAGES, Pte(frame=frame))
        elif kind == "gunmap":
            (vpn,) = args
            pte = gpt.lookup(vpn)
            if pte is not None and not pte.huge:
                gpt.unmap(vpn)
            elif pte is not None:
                gpt.unmap_huge(vpn - vpn % HUGE_PAGE_PAGES)
        elif kind == "gprotect":
            vpn, flags = args
            if gpt.lookup(vpn) is not None:
                gpt.protect(vpn, **flags)
        elif kind == "emap":
            e, gfn, target, writable = args
            if self.epts[e].lookup(gfn) is None:
                self.epts[e].map(gfn, Pte(frame=target, writable=writable,
                                          user=False))
        elif kind == "ehuge":
            e, region, target = args
            self.epts[e].map_huge(region * HUGE_PAGE_PAGES,
                                  Pte(frame=target, user=False))
        elif kind == "ecover":
            # Map every guest frame a walk can reach: node frames and
            # leaf frames (a 2 MiB guest run through one huge entry).
            (e,) = args
            ept = self.epts[e]
            for vpn, pte in gpt.iter_mappings():
                if pte.huge and ept.lookup(pte.frame) is None:
                    ept.map_huge(pte.frame - pte.frame % HUGE_PAGE_PAGES,
                                 Pte(frame=0x8000, user=False))
            for gfn in gpt.node_frames() + [
                    pte.frame for _, pte in gpt.iter_mappings()]:
                if ept.lookup(gfn) is None:
                    ept.map(gfn, Pte(frame=0x4000 + gfn, user=False))
        elif kind == "eunmap":
            e, gfn = args
            ept = self.epts[e]
            pte = ept.lookup(gfn)
            if pte is not None and not pte.huge:
                ept.unmap(gfn)
            elif pte is not None:
                ept.unmap_huge(gfn - gfn % HUGE_PAGE_PAGES)
        elif kind == "eprotect":
            e, gfn, flags = args
            if self.epts[e].lookup(gfn) is not None:
                self.epts[e].protect(gfn, **flags)
        elif kind == "eframe":
            e, gfn, target = args
            ept = self.epts[e]
            if ept.lookup(gfn) is not None:
                ept.ensure(gfn, Pte(frame=target), frame=target)
        elif kind == "edestroy":
            (e,) = args
            self.epts[e].destroy()
        elif kind == "harvest":
            (t,) = args
            return self.tables()[t].harvest_accessed(clear=True)
        else:
            raise AssertionError(kind)
        return None


_VPNS = st.sampled_from([0, 1, 2, 511, 512, 1 << 18, (1 << 18) + 3])
_GFNS = st.integers(min_value=0, max_value=12) | st.sampled_from([512, 600])
_EPT = st.integers(min_value=0, max_value=1)
_FLAGS = st.fixed_dictionaries({}, optional={
    "writable": st.booleans(), "user": st.booleans(),
    "executable": st.booleans()})
_EFLAGS = st.fixed_dictionaries({}, optional={
    "writable": st.booleans(), "executable": st.booleans()})

_walk = st.tuples(st.just("walk"), _EPT, _VPNS,
                  st.sampled_from(list(AccessType)), st.booleans())
# Walks and removals are drawn most often: a memo is made by a walk,
# invalidated by a removal and checked by the next walk.
_steps = st.one_of(
    st.tuples(st.just("gmap"), _VPNS, _GFNS, st.booleans(), st.booleans()),
    st.tuples(st.just("ghuge"), st.sampled_from([0, 1, 2]),
              st.sampled_from([0, 512])),
    st.tuples(st.just("gunmap"), _VPNS),
    st.tuples(st.just("gprotect"), _VPNS, _FLAGS),
    st.tuples(st.just("emap"), _EPT, _GFNS, _GFNS, st.booleans()),
    st.tuples(st.just("ehuge"), _EPT, st.sampled_from([0, 1]),
              st.sampled_from([0x8000, 0x8200])),
    st.tuples(st.just("ecover"), _EPT),
    st.tuples(st.just("ecover"), _EPT),
    st.tuples(st.just("eunmap"), _EPT, _GFNS),
    st.tuples(st.just("eunmap"), _EPT, _GFNS),
    st.tuples(st.just("eprotect"), _EPT, _GFNS, _EFLAGS),
    st.tuples(st.just("eframe"), _EPT, _GFNS, _GFNS),
    st.tuples(st.just("edestroy"), _EPT),
    st.tuples(st.just("harvest"), st.integers(min_value=0, max_value=2)),
    _walk, _walk, _walk, _walk,
)


#: Every example starts from mapped guest pages in two leaf tables (one
#: read-only, one supervisor-only) that both EPTs fully cover, so walks
#: succeed and memoize before the random steps take things away.
_PREAMBLE = [("gmap", 0, 3, True, True), ("gmap", 1, 4, False, True),
             ("gmap", 511, 5, True, False), ("gmap", 1 << 18, 6, True, True),
             ("gmap", (1 << 18) + 3, 7, True, True),
             ("ecover", 0), ("ecover", 1)]


#: Probe walks after every step, so each step's effect on a memo made
#: by an earlier walk is checked at once.  Each leaf table is walked over
#: both EPTs twice (the second walk over an EPT can hit the memo the
#: first made); the first leaf table's memo is left for EPT 0 and the
#: second's for EPT 1, and the next probes start with those EPTs, so a
#: step on either EPT meets a memo made for it.
_PROBES = [(e, vpn, _READ, True) for e, vpn in (
    (0, 0), (1, 0), (1, 1), (0, 1),
    (1, 1 << 18), (0, 1 << 18), (0, (1 << 18) + 3), (1, (1 << 18) + 3))]


class TestNestedWalkProperty:
    @given(st.lists(_steps, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_access_2d_agrees_with_two_walks(self, steps):
        memo, oracle = World(), World()
        mmu = Mmu(Tlb(), EventLog(), DEFAULT_COSTS)
        for step in _PREAMBLE + steps:
            if step[0] == "walk":
                walks = [step[1:]]
            else:
                assert memo.apply(step) == oracle.apply(step), step
                walks = _PROBES
            for e, vpn, access, user in walks:
                got = mmu_2d(mmu, memo.gpt, memo.epts[e], vpn, access, user)
                want = oracle_2d(oracle.gpt, oracle.epts[e], vpn, access, user)
                assert got == want, (step, vpn)
                for mine, theirs in zip(memo.tables(), oracle.tables()):
                    assert entries(mine) == entries(theirs), (step, vpn)


# -- named cases -----------------------------------------------------------------

VPN = 0x1234
DATA = 40


def _nested():
    """A guest table mapping ``VPN`` -> ``DATA`` over an EPT mapping its
    node frames and ``DATA`` (all in one EPT leaf table)."""
    gpt = PageTable(PhysicalMemory("guest", 4 * MIB), "gpt")
    gpt.map(VPN, Pte(frame=DATA))
    ept = PageTable(PhysicalMemory("host", 16 * MIB), "ept")
    for gfn in gpt.node_frames() + [DATA]:
        ept.map(gfn, Pte(frame=0x100 + gfn, user=False))
    return gpt, ept, Mmu(Tlb(), EventLog(), DEFAULT_COSTS)


def _path(gpt):
    """The root-down frames of ``VPN``'s guest leaf table."""
    return gpt.leaves[VPN >> 9][2]


def _memo(gpt):
    return gpt.leaves[VPN >> 9][0].ept_memo


FULL_NS = 4 * STEP_2D + 5 * 4 * STEP_1D


class TestGuestPathMemo:
    def test_hit_charges_and_marks_as_a_full_walk(self):
        gpt, ept, mmu = _nested()
        first = mmu_2d(mmu, gpt, ept, VPN, _READ, True)
        assert _memo(gpt)[0] == ept.stamp
        ept.harvest_accessed(clear=True)
        assert mmu_2d(mmu, gpt, ept, VPN, _READ, True) == first
        assert first == (0x100 + DATA, FULL_NS)
        assert all(ept.lookup(gfn).accessed for gfn in _path(gpt))

    def test_removed_node_frame_entry_faults(self):
        gpt, ept, mmu = _nested()
        mmu_2d(mmu, gpt, ept, VPN, _READ, True)
        gone = _path(gpt)[2]
        ept.unmap(gone)
        assert _memo(gpt)[0] != ept.stamp
        # The third leg faults, in the EPT leaf table that still exists.
        assert mmu_2d(mmu, gpt, ept, VPN, _READ, True) == (
            EptViolation(gone << 12, _READ, 1), 4 * STEP_2D + 3 * 4 * STEP_1D)
        ept.map(gone, Pte(frame=7, user=False))
        assert mmu_2d(mmu, gpt, ept, VPN, _READ, True) == (0x100 + DATA,
                                                            FULL_NS)

    def test_harvest_clears_bits_the_next_hit_sets(self):
        gpt, ept, mmu = _nested()
        mmu_2d(mmu, gpt, ept, VPN, _READ, True)
        ept.harvest_accessed(clear=True)
        assert not any(ept.lookup(gfn).accessed for gfn in _path(gpt))
        stamp = ept.stamp
        mmu_2d(mmu, gpt, ept, VPN, _WRITE, True)
        assert ept.stamp == stamp  # a harvest removes nothing: a hit
        assert all(ept.lookup(gfn).accessed for gfn in _path(gpt))
        assert not any(ept.lookup(gfn).dirty for gfn in _path(gpt))
        data = ept.lookup(DATA)
        assert data.accessed and data.dirty

    def test_in_place_updates_keep_the_memo(self):
        gpt, ept, mmu = _nested()
        mmu_2d(mmu, gpt, ept, VPN, _READ, True)
        stamp = ept.stamp
        for gfn in _path(gpt):
            ept.protect(gfn, writable=False, executable=False)
        ept.ensure(_path(gpt)[0], Pte(frame=0), frame=0x999)
        ept.protect(DATA, writable=False)
        assert ept.stamp == stamp
        # Node legs are reads; the data leg is checked live.
        assert mmu_2d(mmu, gpt, ept, VPN, _READ, True)[0] == 0x100 + DATA
        assert mmu_2d(mmu, gpt, ept, VPN, _WRITE, True) == (
            EptViolation(DATA << 12, _WRITE, 1), FULL_NS)

    @pytest.mark.parametrize("teardown", ["destroy", "release"])
    def test_destroy_and_release_invalidate(self, teardown):
        gpt, ept, mmu = _nested()
        mmu_2d(mmu, gpt, ept, VPN, _READ, True)
        stamp = ept.stamp
        getattr(ept, teardown)()
        assert ept.stamp != stamp
        root = _path(gpt)[0]
        assert mmu_2d(mmu, gpt, ept, VPN, _READ, True) == (
            EptViolation(root << 12, _READ, 4), 4 * STEP_2D + 4 * STEP_1D)

    def test_another_ept_under_the_same_guest_table(self):
        gpt, ept_a, mmu = _nested()
        ept_b = PageTable(PhysicalMemory("host-b", 16 * MIB), "ept-b")
        path = _path(gpt)
        for gfn in (*path[:3], DATA):
            ept_b.map(gfn, Pte(frame=0x200 + gfn, user=False))
        assert mmu_2d(mmu, gpt, ept_a, VPN, _READ, True)[0] == 0x100 + DATA
        assert mmu_2d(mmu, gpt, ept_b, VPN, _READ, True) == (
            EptViolation(path[3] << 12, _READ, 1),
            4 * STEP_2D + 4 * 4 * STEP_1D)
        ept_b.map(path[3], Pte(frame=1, user=False))
        assert mmu_2d(mmu, gpt, ept_b, VPN, _READ, True)[0] == 0x200 + DATA
        assert _memo(gpt)[0] == ept_b.stamp
        assert mmu_2d(mmu, gpt, ept_a, VPN, _READ, True) == (0x100 + DATA,
                                                              FULL_NS)
        assert _memo(gpt)[0] == ept_a.stamp


# -- one-pass teardown -------------------------------------------------------------


def _record_frees(phys, log):
    """Log every frame ``phys`` frees, in order."""
    free_frame, free = phys.free_frame, phys.free

    def logged_free_frame(frame):
        log.append(frame)
        free_frame(frame)

    def logged_free(frames):
        log.extend(frames)
        free(frames)

    phys.free_frame = logged_free_frame
    phys.free = logged_free


def unmap_page_by_page(table, on_unmap):
    """The reference drain: unmap every mapping, one at a time."""
    removed = 0
    for vpn, pte in list(table.iter_mappings()):
        if pte.huge:
            table.unmap_huge(vpn)
        else:
            table.unmap(vpn)
        on_unmap(vpn, pte)
        removed += 1
    return removed


def release_page_by_page(table, on_unmap):
    """The reference teardown: unmap every mapping, then release."""
    removed = unmap_page_by_page(table, on_unmap)
    table.release()
    return removed


def _counters(table):
    """What a drain must leave as unmapping page by page leaves it."""
    return (table.entry_writes, table.stamp - (table.uid << _STAMP_BITS), table.epoch,
            table.node_allocations, table.mapped_pages, dict(table.leaves))


_TEARDOWN_VPNS = st.sampled_from(
    [0, 1, 5, 511, 512, 600, 1023, 1024, 1 << 18, (1 << 18) + 1, 1 << 27])


class TestDrain:
    @given(st.lists(st.tuples(st.sampled_from(["map", "huge", "unmap"]),
                              _TEARDOWN_VPNS), max_size=30),
           st.integers(min_value=6, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_frees_as_page_by_page_unmapping(self, ops, frames):
        """Random tables — 2 MiB entries, pruned subtrees, and the empty
        upper nodes a failed allocation leaves behind — drain, then
        release, in the page-by-page order."""
        logs = []
        for teardown in ("drain", "reference"):
            phys = PhysicalMemory("t", frames * 4 * KIB, policy="stream")
            pt = PageTable(phys, "t")
            for n, (kind, vpn) in enumerate(ops):
                try:
                    if kind == "map":
                        pt.map(vpn, Pte(frame=100 + n))
                    elif kind == "huge":
                        pt.map_huge(vpn - vpn % HUGE_PAGE_PAGES,
                                    Pte(frame=HUGE_PAGE_PAGES * (n + 1)))
                    elif pt.lookup(vpn) is not None and not pt.lookup(vpn).huge:
                        pt.unmap(vpn)
                except (HardwareError, MemoryError):
                    pass
            log = []
            _record_frees(phys, log)

            def on_unmap(vpn, pte):
                log.append(("unmap", vpn, pte.frame))

            if teardown == "drain":
                removed = pt.drain(on_unmap)
            else:
                removed = unmap_page_by_page(pt, on_unmap)
            drained = _counters(pt)
            assert pt.mapped_pages == 0 and not pt.leaves
            log.append("release")
            pt.release()
            logs.append((log, removed, drained, phys.allocator.used_frames,
                         list(phys.allocator._recycled)))
        assert logs[0] == logs[1]


def _processes(thp):
    """A pvm (BM) guest with a file-backed VMA and a forked child whose
    COW breaks left it with private and shared frames, and a process
    that never forked (its 2 MiB mappings are not split)."""
    m = make_machine("pvm (BM)", config=MachineConfig(thp=thp))
    ctx = m.new_context()
    solo = m.spawn_process()
    region = m.mmap(ctx, solo, 6 * MIB)
    for vpn in range(region.start_vpn, region.end_vpn, 97):
        m.touch(ctx, solo, vpn, write=True)
    parent = m.spawn_process()
    anon = m.mmap(ctx, parent, 2 * MIB + 64 * KIB)
    files = m.mmap(ctx, parent, 32 * KIB, kind="file", file_key="lib")
    for vpn in list(range(anon.start_vpn, anon.end_vpn, 7)) + [anon.end_vpn - 1]:
        m.touch(ctx, parent, vpn, write=True)
    for vpn in range(files.start_vpn, files.end_vpn):
        m.touch(ctx, parent, vpn)
    child = m.fork(ctx, parent)
    for vpn in range(anon.start_vpn, anon.end_vpn, 21):
        m.touch(ctx, child, vpn, write=True)  # COW breaks
    for vpn in range(files.start_vpn, files.start_vpn + 3):
        m.touch(ctx, child, vpn)
    return m, {"solo": solo, "parent": parent, "child": child}


def exit_page_by_page(kernel, proc):
    """``GuestKernel.exit_process`` as unmapping page by page does it."""
    def release(vpn, pte):
        if pte.huge:
            kernel.phys.free(FrameRange(pte.frame, HUGE_PAGE_PAGES))
        else:
            kernel._put_frame(proc, vpn, pte)

    release_page_by_page(proc.gpt, release)
    proc.alive = False
    del kernel.processes[proc.pid]


def exec_page_by_page(kernel, proc):
    """``GuestKernel.sys_exec``'s teardown as unmapping page by page does
    it."""
    vpns = []

    def release(vpn, pte):
        if pte.huge:
            kernel.phys.free(FrameRange(pte.frame, HUGE_PAGE_PAGES))
        else:
            kernel._put_frame(proc, vpn, pte)
        vpns.append(vpn)

    unmap_page_by_page(proc.gpt, release)
    return UnmapWork(vpns=tuple(vpns), entry_writes=len(vpns))


def drop_page_by_page(shadow, proc):
    """``ShadowManager.drop`` as unmapping page by page does it."""
    for half in ("user", "kernel"):
        table = shadow.tables.pop((proc.pid, half), None)
        if table is None:
            continue

        def forget(vpn, pte, half=half):
            shadow._rmap.get(shadow._rmap_gfn_of(pte), set()).discard(
                (proc.pid, half, vpn))

        release_page_by_page(table, forget)


_THP = pytest.mark.parametrize("thp", [False, True], ids=["4k", "thp"])
_WHO = pytest.mark.parametrize("who", ["solo", "parent", "child"])


class TestTeardownOrder:
    """Exit and exec, each followed by the shadow drop, free frames and
    leave the table's counters as the page-by-page sequence does."""

    def _check(self, thp, who, op):
        runs = []
        for one_pass in (True, False):
            m, procs = _processes(thp)
            proc = procs[who]
            huge = any(pte.huge for _, pte in proc.gpt.iter_mappings())
            assert huge == (thp and who == "solo")
            guest_log, table_log = [], []
            _record_frees(m.guest_phys, guest_log)
            _record_frees(m.shadow.table_phys, table_log)
            work = None
            if op == "exec":
                work = (m.kernel.sys_exec(proc) if one_pass
                        else exec_page_by_page(m.kernel, proc))
            elif one_pass:
                m.kernel.exit_process(proc)
            else:
                exit_page_by_page(m.kernel, proc)
            if one_pass:
                m.shadow.drop(proc)
            else:
                drop_page_by_page(m.shadow, proc)
            rmap = {gfn: sorted(refs) for gfn, refs in m.shadow._rmap.items()}
            runs.append((guest_log, table_log, rmap,
                         list(m.guest_phys.allocator._recycled),
                         work, _counters(proc.gpt)))
        assert runs[0] == runs[1]
        assert runs[0][0] and runs[0][1]

    @_THP
    @_WHO
    def test_exit_and_drop_free_in_page_by_page_order(self, thp, who):
        self._check(thp, who, "exit")

    @_THP
    @_WHO
    def test_exec_and_drop_free_in_page_by_page_order(self, thp, who):
        self._check(thp, who, "exec")
