"""Unit tests for PVM interrupt virtualization (§3.3.3)."""

from repro.core.interrupts import PvmInterruptController, VirtualApic
from repro.guest.interrupts import (
    HandlerSite,
    Idt,
    InterruptQueue,
    PendingInterrupt,
    Vector,
)


class TestIdt:
    def test_default_guest_handlers(self):
        idt = Idt()
        assert idt.entry(Vector.TIMER).site is HandlerSite.GUEST_KERNEL

    def test_point_all_to_switcher(self):
        idt = Idt()
        idt.point_all_to_switcher()
        assert all(s is HandlerSite.SWITCHER for s in idt.sites().values())


class TestInterruptQueue:
    def test_fifo(self):
        q = InterruptQueue()
        q.post(PendingInterrupt(Vector.TIMER, 10))
        q.post(PendingInterrupt(Vector.VIRTIO_NET, 20))
        assert q.pop().vector is Vector.TIMER
        assert q.pop().vector is Vector.VIRTIO_NET
        assert q.pop() is None

    def test_defer_counter(self):
        q = InterruptQueue()
        q.defer()
        assert q.deferred == 1


class TestVirtualApic:
    def test_post_take(self):
        apic = VirtualApic()
        apic.post(Vector.TIMER)
        assert apic.take() is Vector.TIMER
        assert apic.take() is None
        assert apic.injected == 1


class TestSharedIfWord:
    """The 8-byte shared RFLAGS.IF virtualization — the core of §3.3.3."""

    def test_delivery_when_enabled(self):
        irq = PvmInterruptController()
        irq.l0_inject(Vector.TIMER)
        assert irq.can_deliver()
        assert irq.deliver() is Vector.TIMER

    def test_delivery_blocked_by_cli(self):
        irq = PvmInterruptController()
        irq.guest_cli()  # a plain store, no exit
        irq.l0_inject(Vector.TIMER)
        assert irq.deliver() is None
        # The interrupt stays pending and the word records the deferral.
        assert irq.shared_if.pending_delivery
        assert irq.apic.deferred == 1

    def test_sti_reports_pending(self):
        irq = PvmInterruptController()
        irq.guest_cli()
        irq.l0_inject(Vector.TIMER)
        irq.deliver()
        # STI must tell the guest to hypercall for delivery.
        assert irq.guest_sti() is True
        # Now delivery works.
        assert irq.deliver() is Vector.TIMER

    def test_sti_without_pending(self):
        irq = PvmInterruptController()
        assert irq.guest_sti() is False

    def test_custom_idt_in_place(self):
        irq = PvmInterruptController()
        assert all(
            s is HandlerSite.SWITCHER for s in irq.custom_idt.sites().values()
        )

    def test_l0_injection_counted(self):
        irq = PvmInterruptController()
        irq.l0_inject(Vector.TIMER)
        irq.l0_inject(Vector.VIRTIO_BLK)
        assert irq.l0_injections == 2

    def test_deliver_nothing_pending(self):
        assert PvmInterruptController().deliver() is None
