"""Property-based tests (hypothesis) on core data-structure invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SCENARIOS, make_machine
from repro.containers.runtime import (
    MemberStateError,
    RunDRuntime,
    SupervisorPolicy,
)
from repro.faults import (
    SITE_CONTAINER_BOOT,
    SITE_GUEST_PANIC,
    SITE_GUEST_PHYS,
    SITE_MEMORY_PRESSURE,
    FaultPlan,
)
from repro.hypervisors.base import MachineConfig
from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import PageTable, PageTableNode, Pte
from repro.hw.memory import PhysicalMemory
from repro.hw.tlb import HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import (
    MIB,
    NUM_PCIDS,
    PAGE_SIZE,
    AccessType,
    Asid,
    HardwareError,
    PageFault,
    PageFaultError,
    table_index,
)
from repro.guest.addrspace import AddressSpace
from repro.memory.qos import MemoryQosConfig
from repro.sim.clock import Clock
from repro.sim.locks import SimLock
from repro.sim.stats import LatencyStats
from repro.workloads.memalloc import memalloc
from tests.test_pagetable import guest_leg_2d


vpns = st.integers(min_value=0, max_value=(1 << 35) - 1)


class TestPageTableProperties:
    @given(st.lists(vpns, unique=True, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_map_then_walkable_and_sorted(self, vpn_list):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, vpn in enumerate(vpn_list):
            pt.map(vpn, Pte(frame=i))
        assert pt.mapped_pages == len(vpn_list)
        seen = [v for v, _ in pt.iter_mappings()]
        assert seen == sorted(vpn_list)
        for i, vpn in enumerate(vpn_list):
            assert pt.lookup(vpn).frame == i

    @given(st.lists(vpns, unique=True, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_map_unmap_releases_all_frames(self, vpn_list):
        phys = PhysicalMemory("t", 64 * MIB)
        free0 = phys.free_frames
        pt = PageTable(phys, "p")
        for vpn in vpn_list:
            pt.map(vpn, Pte(frame=0))
        for vpn in vpn_list:
            pt.unmap(vpn)
        # Only the root remains allocated.
        assert phys.free_frames == free0 - 1
        assert pt.mapped_pages == 0

    @given(st.lists(vpns, unique=True, min_size=2, max_size=30),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_partial_unmap_preserves_others(self, vpn_list, data):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, vpn in enumerate(vpn_list):
            pt.map(vpn, Pte(frame=i))
        victim_idx = data.draw(
            st.integers(min_value=0, max_value=len(vpn_list) - 1))
        pt.unmap(vpn_list[victim_idx])
        for i, vpn in enumerate(vpn_list):
            if i == victim_idx:
                assert pt.lookup(vpn) is None
            else:
                assert pt.lookup(vpn).frame == i


# -- page-table walks against a dict reference model ---------------------

_HUGE = 512
#: Huge-region numbers (vpn // 512) the model exercises: two neighbours
#: under one level-2 table, one under another level-3 entry and one
#: under another level-4 entry, so misses stop at every level.
_REGIONS = (0, 1, 1 << 9, 1 << 18)
_OFFSETS = (0, 1, 2, _HUGE - 1)
_MODEL_VPNS = tuple(r * _HUGE + o for r in _REGIONS for o in _OFFSETS)
#: Probed after the op sequence: the op vpns plus one page per region
#: that only a huge mapping or its split covers.
_PROBE_VPNS = _MODEL_VPNS + tuple(r * _HUGE + 7 for r in _REGIONS)
_PERMS = ("writable", "user", "executable")

_perm_flags = st.fixed_dictionaries({k: st.booleans() for k in _PERMS})
_flag_updates = st.dictionaries(st.sampled_from(_PERMS + ("global_",)),
                                st.booleans())
#: ``unmap_each`` runs: a few probe vpns in any order (repeats too), or
#: one whole region, whose entries all go and whose tables get pruned.
_unmap_runs = st.one_of(
    st.lists(st.sampled_from(_PROBE_VPNS), max_size=6),
    st.sampled_from([tuple(range(r * _HUGE, (r + 1) * _HUGE))
                     for r in _REGIONS]),
)
_pt_ops = st.one_of(
    st.tuples(st.just("map"), st.sampled_from(_MODEL_VPNS), _perm_flags),
    st.tuples(st.just("map_huge"), st.sampled_from(_REGIONS), _perm_flags),
    st.tuples(st.just("unmap"), st.sampled_from(_MODEL_VPNS)),
    st.tuples(st.just("unmap_huge"), st.sampled_from(_REGIONS)),
    st.tuples(st.just("split_huge"), st.sampled_from(_REGIONS)),
    st.tuples(
        st.just("protect"), st.sampled_from(_MODEL_VPNS),
        st.dictionaries(st.sampled_from(_PERMS + ("global_",)),
                        st.booleans(), min_size=1),
    ),
    st.tuples(st.just("touch"), st.sampled_from(_MODEL_VPNS),
              st.sampled_from(list(AccessType)), st.booleans()),
    st.tuples(st.just("unmap_each"), _unmap_runs),
    st.tuples(st.just("ensure"), st.sampled_from(_MODEL_VPNS), _perm_flags,
              _flag_updates, st.booleans()),
    st.tuples(st.just("destroy")),
    st.tuples(st.just("release")),
)


class _PtModel:
    """Reference model: small entries by vpn, huge entries by region.

    Each entry is a dict of the :class:`Pte` fields the walks read or
    set.  Node existence is derived from the mappings, so a leaked or
    missing table node shows up as a wrong fault level.
    """

    def __init__(self) -> None:
        self.small = {}
        self.huge = {}

    def entry(self, vpn):
        """``(entry, is_huge)`` covering ``vpn``, or ``(None, False)``."""
        if vpn in self.small:
            return self.small[vpn], False
        if vpn // _HUGE in self.huge:
            return self.huge[vpn // _HUGE], True
        return None, False

    def miss_level(self, vpn) -> int:
        """The level at which a walk of an unmapped ``vpn`` stops."""
        mapped = list(self.small) + [r * _HUGE for r in self.huge]
        if not any(v >> 27 == vpn >> 27 for v in mapped):
            return 4
        if not any(v >> 18 == vpn >> 18 for v in mapped):
            return 3
        if not any(v >> 9 == vpn >> 9 for v in self.small):
            return 2
        return 1

    def entries(self):
        """``{(vpn, huge): entry}`` as :meth:`PageTable.iter_mappings`
        reports them."""
        out = {(v, False): e for v, e in self.small.items()}
        out.update({(r * _HUGE, True): e for r, e in self.huge.items()})
        return out

    def clear_ad(self) -> None:
        for e in self.entries().values():
            e["accessed"] = e["dirty"] = False


def _entry_of(pte) -> dict:
    return {
        "frame": pte.frame, "writable": pte.writable, "user": pte.user,
        "executable": pte.executable, "global_": pte.global_,
        "accessed": pte.accessed, "dirty": pte.dirty,
    }


def _expected_walk(model, vpn, access, user):
    """``("ok", frame, huge)`` or ``("fault", level, error)``; applies
    the A/D bits a successful walk sets to the model."""
    e, huge = model.entry(vpn)
    error = PageFaultError.NONE
    if access is AccessType.WRITE:
        error |= PageFaultError.WRITE
    if access is AccessType.EXECUTE:
        error |= PageFaultError.FETCH
    if user:
        error |= PageFaultError.USER
    if e is None:
        return "fault", model.miss_level(vpn), error
    if ((user and not e["user"])
            or (access is AccessType.WRITE and not e["writable"])
            or (access is AccessType.EXECUTE and not e["executable"])):
        return "fault", 2 if huge else 1, error | PageFaultError.PRESENT
    e["accessed"] = True
    if access is AccessType.WRITE:
        e["dirty"] = True
    frame = e["frame"] + (vpn % _HUGE if huge else 0)
    return "ok", frame, huge


def _run_walk(pt, method, vpn, access, user):
    """``pt.walk``, or the guest-dimension walk of a 2-D TLB miss."""
    if method == "walk":
        result = pt.walk(vpn, access, user)
        fault = result if type(result) is PageFault else None
    else:
        frame, mmu, huge = guest_leg_2d(pt, vpn, access, user)
        fault = mmu.fault if frame < 0 else None
    if fault is not None:
        assert type(fault) is PageFault
        assert fault.vaddr == vpn << 12 and fault.access is access
        return "fault", fault.level, fault.error
    if method == "walk":
        _check_root_down_path(pt, vpn, result)
        return "ok", result.frame, result.huge
    return "ok", frame, huge


def _check_root_down_path(pt, vpn, result) -> None:
    nodes = result.nodes
    assert nodes[0] is pt.root
    assert [n.level for n in nodes] == list(
        range(pt.levels, 1 if result.huge else 0, -1))
    for parent, child in zip(nodes, nodes[1:]):
        assert parent.entries[table_index(vpn, parent.level)] is child


def _check_mappings(pt, model) -> None:
    got = {(v, p.huge): _entry_of(p) for v, p in pt.iter_mappings()}
    assert got == model.entries()
    assert pt.mapped_pages == len(model.small) + _HUGE * len(model.huge)


def _apply(pt, model, op, n) -> None:
    """Apply one op to both; invalid ops must raise and change nothing.

    ``release`` leaves the table unusable, so callers stop after it.
    """
    kind = op[0]
    if kind == "map":
        _, vpn, perms = op
        ok = model.entry(vpn)[0] is None
        if ok:
            model.small[vpn] = {"frame": 1000 + n, "global_": False,
                                "accessed": False, "dirty": False, **perms}
        call = lambda: pt.map(vpn, Pte(frame=1000 + n, **perms))  # noqa: E731
    elif kind == "map_huge":
        _, region, perms = op
        ok = region not in model.huge and not any(
            v // _HUGE == region for v in model.small)
        frame = (n + 1) * _HUGE
        if ok:
            model.huge[region] = {"frame": frame, "global_": False,
                                  "accessed": False, "dirty": False, **perms}
        call = lambda: pt.map_huge(region * _HUGE, Pte(frame=frame, **perms))  # noqa: E731
    elif kind == "unmap":
        _, vpn = op
        ok = vpn in model.small
        if ok:
            del model.small[vpn]
        call = lambda: pt.unmap(vpn)  # noqa: E731
    elif kind in ("unmap_huge", "split_huge"):
        _, region = op
        ok = region in model.huge
        if ok:
            e = model.huge.pop(region)
            if kind == "split_huge":
                for i in range(_HUGE):
                    model.small[region * _HUGE + i] = {**e, "frame": e["frame"] + i}
        call = lambda: getattr(pt, kind)(region * _HUGE)  # noqa: E731
    elif kind == "protect":
        _, vpn, flags = op
        e = model.entry(vpn)[0]
        ok = e is not None
        if ok:
            e.update(flags)
        call = lambda: pt.protect(vpn, **flags)  # noqa: E731
    elif kind == "touch":
        _, vpn, access, user = op
        expected = _expected_walk(model, vpn, access, user)
        method = "walk" if n % 2 else "access_2d"
        assert _run_walk(pt, method, vpn, access, user) == expected
        return
    elif kind == "unmap_each":
        _, run = op
        expected = []
        for vpn in run:
            if vpn in model.small:
                del model.small[vpn]
                expected.append(vpn)
            elif vpn % _HUGE == 0 and vpn // _HUGE in model.huge:
                del model.huge[vpn // _HUGE]
                expected.append(vpn)
        got = []
        pt.unmap_each(run, lambda vpn, pte: got.append(vpn))
        assert got == expected
        return
    elif kind == "ensure":
        _, vpn, perms, flags, huge = op
        frame = (n + 1) * _HUGE if huge else 1000 + n
        fresh = {"frame": frame, "global_": False, "accessed": False,
                 "dirty": False, **perms}
        if huge and vpn % _HUGE:
            with pytest.raises(ValueError):
                pt.ensure(vpn, Pte(frame=frame, huge=True, **perms), **flags)
            return
        e = model.entry(vpn)[0]
        if huge and e is None and any(v // _HUGE == vpn // _HUGE
                                      for v in model.small):
            # The slot holds a leaf table without vpn: nothing to update.
            with pytest.raises(HardwareError):
                pt.ensure(vpn, Pte(frame=frame, huge=True, **perms), **flags)
            return
        if e is not None:
            e.update(flags)
        elif huge:
            model.huge[vpn // _HUGE] = fresh
        else:
            model.small[vpn] = fresh
        pt.ensure(vpn, Pte(frame=frame, huge=huge, **perms), **flags)
        return
    elif kind == "destroy":
        model.small.clear()
        model.huge.clear()
        pt.destroy()
        return
    else:
        model.small.clear()
        model.huge.clear()
        pt.release()
        return
    if ok:
        call()
    else:
        with pytest.raises(HardwareError):
            call()


class TestWalkModelProperties:
    @given(st.lists(_pt_ops, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_walks_agree_with_reference_model(self, ops):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        model = _PtModel()
        for n, op in enumerate(ops):
            _apply(pt, model, op, n)
            _check_mappings(pt, model)
            if op[0] == "release":
                break
        for vpn in _PROBE_VPNS:
            for access in AccessType:
                for user in (True, False):
                    for method in ("walk", "access_2d"):
                        pt.harvest_accessed(clear=True)
                        model.clear_ad()
                        expected = _expected_walk(model, vpn, access, user)
                        assert _run_walk(pt, method, vpn, access, user) == expected
                        _check_mappings(pt, model)
            e, huge = model.entry(vpn)
            pte = pt.lookup(vpn)
            if e is None:
                assert pte is None
            else:
                assert (pte.frame, pte.huge) == (e["frame"], huge)
        # lookup sets no A/D bits.
        _check_mappings(pt, model)


def _leaf_tables(pt):
    """``{key: (node, nodes root-down)}`` for every level-1 node hanging
    below the root, rebuilt from the tree: the leaf-table index's spec."""
    out = {}
    stack = [(pt.root, 0, (pt.root,))]
    while stack:
        node, key, path = stack.pop()
        if node.level == 1 and node is not pt.root:
            out[key] = (node, path)
        for idx, child in node.entries.items():
            if type(child) is PageTableNode:
                stack.append((child, (key << 9) | idx, path + (child,)))
    return out


def _check_leaf_index(pt) -> None:
    tree = _leaf_tables(pt)
    assert pt.leaves.keys() == tree.keys()
    for key, (node, path) in tree.items():
        leaf, nodes, frames = pt.leaves[key]
        assert leaf is node
        assert len(nodes) == len(path)
        assert all(a is b for a, b in zip(nodes, path))
        assert frames == tuple(n.frame for n in path)


def _walk_outcome(pt, vpn, access, user, start):
    """A walk's result, fault level and the A/D bits it left on the
    entry covering ``vpn``, which is restored afterwards."""
    pte = pt.lookup(vpn)
    saved = None if pte is None else (pte.accessed, pte.dirty)
    r = pt.walk(vpn, access, user, start)
    ad = None if pte is None else (pte.accessed, pte.dirty)
    if pte is not None:
        pte.accessed, pte.dirty = saved
    if type(r) is PageFault:
        return "fault", r.vaddr, r.error, r.level, ad
    return ("ok", r.frame, r.huge, id(r.pte), [id(n) for n in r.nodes], ad)


def _check_index_walks(pt, n) -> None:
    """``walk`` and ``lookup`` (which start at the index) agree with a
    walk started at the root on every probe vpn."""
    accesses = list(AccessType)
    for i, vpn in enumerate(_PROBE_VPNS):
        access = accesses[(n + i) % len(accesses)]
        user = bool((n + i) & 4)
        assert (_walk_outcome(pt, vpn, access, user, None)
                == _walk_outcome(pt, vpn, access, user, pt.root))
        ref = _walk_outcome(pt, vpn, AccessType.READ, False, pt.root)
        pte = pt.lookup(vpn)
        if ref[0] == "fault":
            assert pte is None
        else:
            assert id(pte) == ref[3]


def _apply_unchecked(pt, op, n) -> None:
    """Apply one op with no reference model (aliasing vpns of shallow
    tables break the model's layout); a rejected op is fine."""
    kind = op[0]
    try:
        if kind == "map":
            pt.map(op[1], Pte(frame=1000 + n, **op[2]))
        elif kind == "map_huge":
            pt.map_huge(op[1] * _HUGE, Pte(frame=(n + 1) * _HUGE, **op[2]))
        elif kind == "unmap":
            pt.unmap(op[1])
        elif kind in ("unmap_huge", "split_huge"):
            getattr(pt, kind)(op[1] * _HUGE)
        elif kind == "protect":
            pt.protect(op[1], **op[2])
        elif kind == "touch":
            pt.walk(op[1], op[2], op[3])
        elif kind == "unmap_each":
            pt.unmap_each(op[1], lambda vpn, pte: None)
        elif kind == "ensure":
            _, vpn, perms, flags, huge = op
            pt.ensure(vpn, Pte(frame=1000 + n, huge=huge, **perms), **flags)
        else:
            getattr(pt, kind)()
    except (HardwareError, ValueError):
        pass


class TestLeafIndexProperties:
    """The leaf-table index stays exact under every table op, at every
    depth, and index-started walks match root-started ones."""

    @given(st.integers(1, 4), st.lists(_pt_ops, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_index_matches_tree(self, levels, ops):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p", levels=levels)
        for n, op in enumerate(ops):
            _apply_unchecked(pt, op, n)
            _check_leaf_index(pt)
            _check_index_walks(pt, n)
            if op[0] == "release":
                break


class TestLocateProperties:
    """:meth:`PageTable.locate` is the root-down search a read walk
    makes: the same nodes and entry, or the walk's fault level."""

    @given(st.integers(1, 4), st.lists(_pt_ops, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_locate_matches_root_walk(self, levels, ops):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p", levels=levels)
        for n, op in enumerate(ops):
            if op[0] == "release":
                break
            _apply_unchecked(pt, op, n)
            for vpn in _PROBE_VPNS:
                path, entry = pt.locate(vpn)
                pte = pt.lookup(vpn)
                saved = None if pte is None else (pte.accessed, pte.dirty)
                ref = pt.walk(vpn, AccessType.READ, False, start=pt.root)
                if pte is not None:
                    pte.accessed, pte.dirty = saved
                if type(ref) is PageFault:
                    # A read in kernel mode faults only where nothing maps.
                    assert entry is None
                    assert path[-1].level == ref.level
                    assert path[0] is pt.root
                    for parent, child in zip(path, path[1:]):
                        assert parent.entries[
                            table_index(vpn, parent.level)] is child
                else:
                    assert entry is ref.pte
                    assert tuple(path) == ref.nodes


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=16),
                    min_size=1, max_size=30),
           st.sampled_from(["firstfit", "stream"]))
    @settings(max_examples=50, deadline=None)
    def test_no_frame_issued_twice(self, sizes, policy):
        alloc = FrameAllocator(2048, policy=policy)
        issued = set()
        live = []
        for i, size in enumerate(sizes):
            r = alloc.alloc(size) if policy == "firstfit" else None
            if r is None:
                frames = [alloc.alloc_frame() for _ in range(size)]
            else:
                frames = list(r)
            for f in frames:
                assert f not in issued
                issued.add(f)
            live.append(frames)
            if i % 3 == 2:  # free every third allocation
                for f in live.pop(0):
                    alloc.free_frame(f)
                    issued.discard(f)
        assert alloc.used_frames == sum(len(f) for f in live)
        assert alloc.used_frames + alloc.free_frames == 2048

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, ops):
        alloc = FrameAllocator(256)
        held = []
        for take in ops:
            if take or not held:
                try:
                    held.append(alloc.alloc_frame())
                except MemoryError:
                    pass
            else:
                alloc.free_frame(held.pop())
            assert alloc.used_frames + alloc.free_frames == 256


class TestTlbProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, NUM_PCIDS - 1),
                              st.integers(0, 200)),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, inserts, capacity):
        tlb = Tlb(capacity=capacity)
        for vpid, pcid, vpn in inserts:
            tlb.insert(Asid(vpid, pcid), vpn, frame=vpn)
            assert len(tlb) <= capacity

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                              st.integers(0, 50)),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_vpid_flush_complete(self, inserts):
        tlb = Tlb()
        for vpid, pcid, vpn in inserts:
            tlb.insert(Asid(vpid, pcid), vpn, frame=1)
        tlb.flush_vpid(1)
        for vpid, pcid, vpn in inserts:
            if vpid == 1:
                assert tlb.lookup(Asid(vpid, pcid), vpn) is None


def _two_probe(tlb, akey, vpn):
    """The frame a TLB caches for ``vpn``: its 4K entry, else its covering
    2 MiB entry, read from the entry dict with no count to trust."""
    frame = tlb.entries.get((akey << KEY_SHIFT) | vpn)
    if frame is not None:
        return frame
    frame = tlb.entries.get((akey << KEY_SHIFT) | HUGE_TAG | (vpn >> 9))
    return None if frame is None else frame + vpn % 512


_TLB_ASIDS = [Asid(vpid, pcid) for vpid in (1, 2) for pcid in (0, 1)]
_TLB_VPNS = st.integers(min_value=0, max_value=3 * 512 - 1)
_TLB_OPS = st.one_of(
    # (op, asid index, vpn, huge): fills, refreshes and, under a small
    # capacity, FIFO evictions.
    st.tuples(st.just("insert"), st.integers(0, 3), _TLB_VPNS,
              st.booleans()),
    st.tuples(st.just("insert"), st.integers(0, 3), _TLB_VPNS,
              st.just(True)),
    st.tuples(st.just("flush_pages"), st.integers(0, 3),
              st.lists(_TLB_VPNS, max_size=6)),
    st.tuples(st.just("flush_pcid"), st.integers(0, 3)),
    st.tuples(st.just("flush_vpid"), st.sampled_from([1, 2])),
    st.tuples(st.just("flush_all")),
)


class TestTlbHugeCountProperties:
    @given(st.lists(_TLB_OPS, min_size=1, max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_count_is_exact_and_lookup_agrees(self, ops, capacity):
        """After every step the 2 MiB count equals the 2 MiB keys, and a
        lookup that trusts it finds what probing both keys finds."""
        tlb = Tlb(capacity=capacity)
        probes = [(asid.key, vpn) for asid in _TLB_ASIDS
                  for vpn in (0, 1, 511, 512, 700, 1535)]
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, a, vpn, huge = op
                tlb.insert(_TLB_ASIDS[a], vpn, frame=0x1000 + vpn,
                           huge=huge)
                probes.append((_TLB_ASIDS[a].key, vpn))
            elif kind == "flush_pages":
                tlb.flush_pages(_TLB_ASIDS[op[1]], op[2])
            elif kind == "flush_pcid":
                tlb.flush_pcid(_TLB_ASIDS[op[1]])
            elif kind == "flush_vpid":
                tlb.flush_vpid(op[1])
            else:
                tlb.flush_all()
            assert tlb.huge_entries == sum(
                1 for key in tlb.entries if key & HUGE_TAG)
            for akey, vpn in probes:
                assert tlb.lookup_packed(akey, vpn) == _two_probe(
                    tlb, akey, vpn)


class TestLockProperties:
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 500)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_timeline_monotonic_and_exclusive(self, requests):
        """Lock grants never overlap and free_at never goes backwards,
        provided requests arrive in nondecreasing time order (the engine
        guarantees earliest-first)."""
        lock = SimLock("l")
        requests.sort(key=lambda rh: rh[0])
        last_free = 0
        for req_time, hold in requests:
            clock = Clock(start=req_time)
            lock.run_locked(clock, hold_ns=hold)
            assert lock.free_at >= last_free
            assert clock.now == lock.free_at
            last_free = lock.free_at

    @given(st.integers(1, 64), st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_total_serialization(self, n, hold):
        """N simultaneous requesters serialize to exactly n*hold."""
        lock = SimLock("l")
        clocks = [Clock() for _ in range(n)]
        for c in clocks:
            lock.run_locked(c, hold_ns=hold)
        assert max(c.now for c in clocks) == n * hold


class TestAddressSpaceProperties:
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mmap_never_overlaps(self, sizes):
        a = AddressSpace()
        vmas = [a.mmap(s << 12) for s in sizes]
        for i, v1 in enumerate(vmas):
            for v2 in vmas[i + 1:]:
                assert not v1.overlaps(v2)
        assert a.total_pages == sum(sizes)

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=20),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_munmap_removes_exactly_one(self, sizes, data):
        a = AddressSpace()
        vmas = [a.mmap(s << 12) for s in sizes]
        victim = data.draw(st.sampled_from(vmas))
        a.munmap(victim.start_vpn)
        assert not a.covers(victim.start_vpn)
        for v in vmas:
            if v is not victim:
                assert a.covers(v.start_vpn)


class TestHugePageProperties:
    @given(st.lists(st.integers(0, 63), unique=True, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_huge_map_walk_roundtrip(self, blocks):
        from repro.hw.pagetable import HUGE_PAGE_PAGES

        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, block in enumerate(blocks):
            pt.map_huge(block * HUGE_PAGE_PAGES,
                        Pte(frame=(i + 1) * HUGE_PAGE_PAGES))
        assert pt.mapped_pages == len(blocks) * HUGE_PAGE_PAGES
        from repro.hw.types import AccessType as AT

        for i, block in enumerate(blocks):
            base = block * HUGE_PAGE_PAGES
            for off in (0, 1, HUGE_PAGE_PAGES - 1):
                w = pt.walk(base + off, AT.READ, user=True)
                assert w.huge
                assert w.frame == (i + 1) * HUGE_PAGE_PAGES + off

    @given(st.integers(0, 32))
    @settings(max_examples=20, deadline=None)
    def test_split_preserves_translation(self, block):
        from repro.hw.pagetable import HUGE_PAGE_PAGES
        from repro.hw.types import AccessType as AT

        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        base = block * HUGE_PAGE_PAGES
        pt.map_huge(base, Pte(frame=0x4000))
        before = [pt.walk(base + off, AT.READ, True).frame
                  for off in (0, 7, 511)]
        pt.split_huge(base)
        after = [pt.walk(base + off, AT.READ, True).frame
                 for off in (0, 7, 511)]
        assert before == after
        assert not pt.lookup(base).huge

    @given(st.integers(1, 7), st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_alloc_aligned_is_aligned_and_disjoint(self, log2_count, n):
        count = 1 << log2_count
        alloc = FrameAllocator(8192)
        seen = set()
        for _ in range(n):
            r = alloc.alloc_aligned(count)
            assert r.start % count == 0
            for f in r:
                assert f not in seen
                seen.add(f)


class TestStatsProperties:
    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_ordered_and_bounded(self, samples):
        s = LatencyStats()
        s.extend(samples)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum


class TestFrameConservation:
    """Balloon inflate/deflate and touch cycles, then eviction teardown,
    hand every frame back — on all seven machines, at every level."""

    ops = st.lists(
        st.tuples(st.sampled_from(("touch", "inflate", "deflate")),
                  st.integers(min_value=1, max_value=48)),
        max_size=8,
    )

    @given(scenario=st.sampled_from(SCENARIOS), ops=ops)
    @settings(max_examples=40, deadline=None)
    def test_teardown_returns_every_frame(self, scenario, ops):
        machine = make_machine(scenario, config=MachineConfig(
            guest_mem_bytes=64 * MIB, host_mem_bytes=256 * MIB))
        l1 = getattr(machine, "l1_phys", None)
        host_free = machine.host_phys.free_frames
        l1_free = l1.free_frames if l1 is not None else None
        ctx = machine.new_context()
        proc = machine.spawn_process()
        for op, pages in ops:
            if op == "touch":
                vma = machine.mmap(ctx, proc, pages * PAGE_SIZE)
                for vpn in range(vma.start_vpn, vma.end_vpn):
                    machine.touch(ctx, proc, vpn, write=True)
                machine.munmap(ctx, proc, vma)
            elif op == "inflate":
                machine.balloon.inflate(ctx, pages * PAGE_SIZE)
            else:
                machine.balloon.deflate(ctx, pages * PAGE_SIZE)
        machine.balloon.deflate(ctx, machine.balloon.held_bytes)
        machine.exit(ctx, proc)
        machine.teardown_guest_memory()
        assert machine.resident_guest_pages() == 0
        assert machine.host_phys.free_frames == host_free
        if l1 is not None:
            assert l1.free_frames == l1_free


class TestFleetMemberProperties:
    """The fleet-member state machine over fault seeds and fleet modes."""

    @staticmethod
    def _run(seed, scenario, qos):
        plan = FaultPlan(seed=seed)
        plan.add(SITE_CONTAINER_BOOT, probability=0.3)
        plan.add(SITE_GUEST_PANIC, probability=0.0008)
        plan.add(SITE_GUEST_PHYS, probability=0.0003)
        if qos:
            plan.add(SITE_MEMORY_PRESSURE, probability=0.5)
        rt = RunDRuntime(
            scenario,
            # Room for two 4 MiB guests: the third member queues, and
            # spikes on top of resident guests can force evictions.
            config=MachineConfig(host_mem_bytes=8 * MIB,
                                 guest_mem_bytes=4 * MIB),
            fault_plan=plan,
            policy=SupervisorPolicy(max_restarts=1),
            memory_qos=MemoryQosConfig(
                evict_after_rounds=1, spike_frac_lo=0.4, spike_frac_hi=0.6,
                spike_hold_ns=20_000_000,
            ) if qos else None,
        )
        res = rt.run_fleet(3, memalloc, total_bytes=2 * MIB,
                           chunk_bytes=MIB // 4, release=False)
        snapshot = (
            res.makespan_ns, res.completions_ns, res.counters,
            res.recovery.snapshot(),
            rt.pressure.snapshot() if qos else None,
        )
        return rt, res, snapshot

    @given(seed=st.integers(0, 1 << 16),
           scenario=st.sampled_from(["pvm (NST)", "kvm-ept (NST)"]),
           qos=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_members_terminate_and_replay(self, seed, scenario, qos):
        rt, res, snapshot = self._run(seed, scenario, qos)
        for m in rt._members:
            assert m.state in ("done", "gave-up", "boot-failed")
            times = [t for t, *_ in m.history]
            assert times == sorted(times)
        assert rt._admitted_frames == 0
        assert 0.0 <= res.recovery.availability <= 1.0
        assert self._run(seed, scenario, qos)[2] == snapshot

    def test_illegal_edge_raises_with_history(self):
        rt = RunDRuntime("pvm (NST)")
        rt.run_fleet(1, memalloc, total_bytes=MIB)
        member = rt._members[0]
        with pytest.raises(MemberStateError) as err:
            member._enter("running", "restart")
        edges = [(frm, to, why) for _, frm, to, why in err.value.history]
        assert edges == [(None, "running", "launch"),
                         ("running", "done", "exit"),
                         ("done", "running", "restart")]
        assert member.state == "done"
