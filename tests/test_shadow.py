"""Unit tests for PVM's dual shadow tables and reverse maps (§3.3.2)."""

import pytest

from repro.core.shadow import ShadowManager
from repro.guest.kernel import GuestKernel
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import Pte
from repro.hw.types import MIB, AccessType
from tests.test_kernel import fault_in


@pytest.fixture
def env():
    guest = PhysicalMemory("g", 32 * MIB)
    table_phys = PhysicalMemory("l1", 32 * MIB)
    backing = {}

    def translate(gfn):
        if gfn not in backing:
            backing[gfn] = table_phys.alloc_frame(tag="l2-ram")
        return backing[gfn]

    kernel = GuestKernel(guest, DEFAULT_COSTS)
    shadow = ShadowManager(table_phys, DEFAULT_COSTS, translate, dual=True)
    proc = kernel.create_process()
    return kernel, shadow, proc


class TestDualTables:
    def test_sync_updates_both_halves(self, env):
        kernel, shadow, proc = env
        result = shadow.sync(proc, 0x100, Pte(frame=5))
        assert shadow.lookup(proc, 0x100, "user") is not None
        assert shadow.lookup(proc, 0x100, "kernel") is not None
        # First sync builds levels in both tables.
        assert result.entry_writes == 8
        assert result.structural

    def test_kpti_off_single_table(self):
        table_phys = PhysicalMemory("l1", 32 * MIB)
        shadow = ShadowManager(table_phys, DEFAULT_COSTS, lambda g: g,
                               dual=False)
        kernel = GuestKernel(PhysicalMemory("g", 32 * MIB), DEFAULT_COSTS)
        proc = kernel.create_process()
        assert shadow.halves(proc) == ["user"]
        shadow.sync(proc, 0x100, Pte(frame=5))
        assert shadow.lookup(proc, 0x100, "kernel") is None

    def test_user_bit_differs_between_halves(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5))
        assert shadow.lookup(proc, 0x100, "user").user
        assert not shadow.lookup(proc, 0x100, "kernel").user

    def test_resync_updates_in_place(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5, writable=False))
        result = shadow.sync(proc, 0x100, Pte(frame=5, writable=True))
        assert result.entry_writes == 2  # one rewrite per half
        assert not result.structural
        assert shadow.lookup(proc, 0x100).writable

    def test_invalid_half(self, env):
        kernel, shadow, proc = env
        with pytest.raises(ValueError):
            shadow.spt(proc, "middle")


class TestReverseMap:
    def test_rmap_tracks_entries(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5))
        entries = shadow.entries_for_gfn(5)
        assert (proc.pid, "user", 0x100) in entries
        assert (proc.pid, "kernel", 0x100) in entries

    def test_downgrade_via_rmap(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5, writable=True))
        shadow.sync(proc, 0x101, Pte(frame=6, writable=True))
        touched = shadow.downgrade_gfn(5, kernel.processes)
        assert touched == 2  # both halves of vpn 0x100
        assert not shadow.lookup(proc, 0x100).writable
        assert shadow.lookup(proc, 0x101).writable  # untouched

    def test_unmap_cleans_rmap(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5))
        removed = shadow.unmap(proc, 0x100)
        assert removed == 2
        assert shadow.entries_for_gfn(5) == set()
        assert shadow.lookup(proc, 0x100) is None

    def test_unmap_missing_noop(self, env):
        kernel, shadow, proc = env
        assert shadow.unmap(proc, 0x999) == 0


class TestWriteProtection:
    def test_write_protect_tracks_gpt_frames(self, env):
        kernel, shadow, proc = env
        vma = kernel.sys_mmap(proc, 1 * MIB)
        fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        n = shadow.write_protect_gpt(proc)
        assert n == len(proc.gpt.node_frames())
        # Idempotent.
        assert shadow.write_protect_gpt(proc) == 0

    def test_note_growth_adds_new_nodes(self, env):
        kernel, shadow, proc = env
        vma = kernel.sys_mmap(proc, 8 * MIB)
        fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        shadow.write_protect_gpt(proc)
        before = len(shadow.write_protected_frames)
        # Fault far enough away to allocate a new leaf table.
        fault_in(kernel, proc, vma.start_vpn + 1024, AccessType.WRITE)
        shadow.note_gpt_growth(proc)
        assert len(shadow.write_protected_frames) > before


    def test_note_growth_rescans_only_when_the_stamp_moves(self, env,
                                                          monkeypatch):
        kernel, shadow, proc = env
        vma = kernel.sys_mmap(proc, 8 * MIB)
        fault_in(kernel, proc, vma.start_vpn, AccessType.WRITE)
        shadow.note_gpt_growth(proc)
        scans = []
        real = type(proc.gpt).node_frames
        monkeypatch.setattr(proc.gpt, "node_frames",
                            lambda: scans.append(1) or real(proc.gpt))
        # Same leaf table: no node allocated or freed, no rescan.
        fault_in(kernel, proc, vma.start_vpn + 1, AccessType.WRITE)
        shadow.note_gpt_growth(proc)
        assert scans == []
        # A new leaf table moves node_allocations.
        fault_in(kernel, proc, vma.start_vpn + 1024, AccessType.WRITE)
        shadow.note_gpt_growth(proc)
        assert scans == [1]
        assert set(real(proc.gpt)) <= shadow.write_protected_frames
        # Dropping every shadow table clears the stamps with the frames.
        shadow.drop_all()
        shadow.note_gpt_growth(proc)
        assert scans == [1, 1]
        assert set(real(proc.gpt)) <= shadow.write_protected_frames


class TestLifecycle:
    def test_drop_releases_tables(self, env):
        kernel, shadow, proc = env
        shadow.sync(proc, 0x100, Pte(frame=5))
        dropped = shadow.drop(proc)
        assert dropped == 2
        assert shadow.entries_for_gfn(5) == set()
        # A new table is created transparently afterwards.
        shadow.sync(proc, 0x100, Pte(frame=5))
        assert shadow.lookup(proc, 0x100) is not None

    def test_sync_counter(self, env):
        """Each sync installs its page in both halves and the rmap."""
        kernel, shadow, proc = env
        shadow.sync(proc, 1, Pte(frame=1))
        shadow.sync(proc, 2, Pte(frame=2))
        for vpn in (1, 2):
            assert shadow.entries_for_gfn(vpn) == {
                (proc.pid, "user", vpn), (proc.pid, "kernel", vpn)}
