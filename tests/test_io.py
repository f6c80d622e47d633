"""Tests for the paravirtual I/O stack (virtio-blk / vhost-net)."""

import pytest

from repro import make_machine
from repro.hw.events import diff_snapshots
from repro.io.devices import VhostNet, VirtioBlk
from repro.io.virtio import QueueFullError, VirtQueue


class TestVirtQueue:
    def test_power_of_two_size(self):
        with pytest.raises(ValueError):
            VirtQueue(size=100)

    def test_add_kick_reap_cycle(self):
        q = VirtQueue(size=8)
        for _ in range(3):
            q.add_buf(4096, write=False)
        assert q.in_flight == 3
        assert q.kick() == 3
        done = q.reap()
        assert len(done) == 3
        assert q.in_flight == 0
        assert q.free_descriptors == 8

    def test_kick_batching(self):
        q = VirtQueue(size=8)
        q.add_buf(1, False)
        q.add_buf(1, False)
        assert q.kick() == 2
        assert q.kicks == 1

    def test_empty_kick_suppressed(self):
        q = VirtQueue(size=8)
        assert q.kick() == 0
        assert q.notifications_suppressed == 1
        assert q.kicks == 0

    def test_queue_full(self):
        q = VirtQueue(size=2)
        q.add_buf(1, False)
        q.add_buf(1, False)
        with pytest.raises(QueueFullError):
            q.add_buf(1, False)

    def test_descriptor_recycling(self):
        q = VirtQueue(size=2)
        q.add_buf(1, False)
        q.kick()
        q.reap()
        q.add_buf(1, False)  # recycled descriptor
        assert q.in_flight == 1

    def test_reap_limit(self):
        q = VirtQueue(size=8)
        for _ in range(4):
            q.add_buf(1, False)
        q.kick()
        assert len(q.reap(max_items=2)) == 2
        assert len(q.reap()) == 2


class TestDevices:
    def test_blk_service_scales_with_size(self):
        blk = VirtioBlk(make_machine("pvm (BM)").costs)
        assert blk.service_ns(64 * 1024) > blk.service_ns(4 * 1024)

    def test_net_service_scales_with_packets(self):
        net = VhostNet(make_machine("pvm (BM)").costs)
        assert net.service_ns(10 * 1500) > net.service_ns(1500)

    def test_accounting(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        m.blk_write(ctx, proc, 8192)
        m.blk_read(ctx, proc, 4096)
        assert m.io.blk.bytes_written == 8192
        assert m.io.blk.bytes_read == 4096
        m.net_send(ctx, proc, 3000)
        assert m.io.net.packets_tx == 2


class TestIoPaths:
    def test_invalid_sizes(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        with pytest.raises(ValueError):
            m.blk_read(ctx, proc, 0)
        with pytest.raises(ValueError):
            m.net_send(ctx, proc, -1)

    def test_one_doorbell_per_batched_request(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        result = m.blk_read(ctx, proc, 64 * 1024)  # 16 descriptors
        assert result.descriptors == 16
        assert result.doorbells == 1  # batching amortizes the kick

    def test_pvm_doorbell_is_hypercall_not_l0(self):
        m = make_machine("pvm (BM)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.blk_read(ctx, proc, 4096)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta.get("l0_exits", {}).get("virtio-doorbell", 0) == 0

    def test_pvm_nst_single_backend_leg(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.blk_read(ctx, proc, 4096)
        delta = diff_snapshots(before, m.events.snapshot())
        # Exactly one ordinary L1<->L0 backend leg, no nested forwarding.
        assert delta["l0_exits"].get("virtio-backend", 0) == 1
        assert delta["l0_exits"].get("l2-exit:virtio-doorbell", 0) == 0

    def test_kvm_nst_doorbell_is_nested(self):
        m = make_machine("kvm-ept (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        before = m.events.snapshot()
        m.blk_read(ctx, proc, 4096)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta["l0_exits"].get("l2-exit:virtio-doorbell", 0) == 1
        assert delta["l0_exits"].get("vmresume", 0) >= 1

    def test_completion_interrupt_delivered(self):
        m = make_machine("pvm (NST)")
        ctx = m.new_context()
        proc = m.spawn_process()
        m.blk_read(ctx, proc, 4096)
        assert m.events.interrupts["virtio"] == 1


class TestIoParity:
    """The paper: PVM's file/network I/O tracks KVM closely."""

    def _io_time(self, name):
        m = make_machine(name)
        ctx = m.new_context()
        proc = m.spawn_process()
        t0 = ctx.clock.now
        for _ in range(10):
            m.blk_read(ctx, proc, 16 * 1024)
            m.net_send(ctx, proc, 4 * 1500)
            m.net_recv(ctx, proc, 4 * 1500)
        return ctx.clock.now - t0

    def test_bm_parity(self):
        kvm = self._io_time("kvm-ept (BM)")
        pvm = self._io_time("pvm (BM)")
        assert abs(pvm - kvm) / kvm < 0.05

    def test_nst_pvm_close_to_bm(self):
        bm = self._io_time("pvm (BM)")
        nst = self._io_time("pvm (NST)")
        assert nst < 1.15 * bm

    def test_nst_kvm_pays_nested_tax(self):
        kvm_bm = self._io_time("kvm-ept (BM)")
        kvm_nst = self._io_time("kvm-ept (NST)")
        pvm_nst = self._io_time("pvm (NST)")
        assert kvm_nst > kvm_bm
        assert pvm_nst < kvm_nst
