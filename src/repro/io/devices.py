"""Virtio devices and the machine-facing I/O stack.

The cost structure of one paravirtual I/O request is

    add_buf* -> doorbell (world switches!) -> device service
             -> completion interrupt (world switches!) -> reap

The device service time is identical across deployment scenarios; the
doorbell and the completion interrupt ride each scenario's switch
machinery, which is exactly why the paper sees near-parity on file and
network I/O with a constant nested penalty for kvm (NST).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import SITE_VIRTIO_COMPLETION, IoCompletionError
from repro.hw.types import KIB
from repro.io.virtio import STATUS_OK, QueueFullError, VirtQueue


#: Re-submissions of errored completions before the request is failed
#: up to the caller (an injected-fault storm, not a real device).
IO_RETRY_LIMIT = 8


class VirtioBlk:
    """virtio-blk: block device with SSD-like service times."""

    SEGMENT = 4 * KIB

    def __init__(self, costs) -> None:
        self.costs = costs
        self.queue = VirtQueue(size=256)
        self.bytes_read = 0
        self.bytes_written = 0

    def service_ns(self, nbytes: int) -> int:
        """Device service time for a request of this size."""
        segments = max(1, (nbytes + self.SEGMENT - 1) // self.SEGMENT)
        return self.costs.blk_service_base + segments * self.costs.blk_service_per_4k

    def account(self, nbytes: int, write: bool) -> None:
        """Record transferred bytes/packets."""
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes


class VhostNet:
    """vhost-net: network device with wire-time service."""

    MTU = 1500

    def __init__(self, costs) -> None:
        self.costs = costs
        self.queue = VirtQueue(size=256)
        self.packets_tx = 0
        self.packets_rx = 0

    def service_ns(self, nbytes: int) -> int:
        """Device service time for a request of this size."""
        packets = max(1, (nbytes + self.MTU - 1) // self.MTU)
        return self.costs.net_service_base + packets * self.costs.net_service_per_mtu

    def account(self, nbytes: int, tx: bool) -> None:
        """Record transferred bytes/packets."""
        if tx:
            self.packets_tx += max(1, (nbytes + self.MTU - 1) // self.MTU)
        else:
            self.packets_rx += max(1, (nbytes + self.MTU - 1) // self.MTU)


@dataclass
class IoResult:
    """Outcome of one paravirtual I/O request."""
    nbytes: int
    descriptors: int
    doorbells: int
    #: Errored completions that were re-submitted (0 without a fault plan).
    retries: int = 0


class IoStack:
    """Per-machine I/O stack binding devices to the switch machinery."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.blk = VirtioBlk(machine.costs)
        self.net = VhostNet(machine.costs)

    # -- block ----------------------------------------------------------------

    def blk_request(self, ctx, nbytes: int, write: bool) -> IoResult:
        """One block request: segment, post, kick, service, complete."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return self._request(ctx, self.blk, nbytes, write,
                             segment=VirtioBlk.SEGMENT)

    # -- network -------------------------------------------------------------------

    def net_send(self, ctx, nbytes: int) -> IoResult:
        """Transmit; see the shared request path."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return self._request(ctx, self.net, nbytes, True,
                             segment=VhostNet.MTU)

    def net_recv(self, ctx, nbytes: int) -> IoResult:
        """Receive; see the shared request path."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return self._request(ctx, self.net, nbytes, False,
                             segment=VhostNet.MTU)

    # -- shared path ------------------------------------------------------------------

    def _request(self, ctx, device, nbytes: int, write: bool,
                 segment: int) -> IoResult:
        machine = self.machine
        costs = machine.costs
        plan = getattr(machine, "fault_plan", None)
        ndesc = max(1, (nbytes + segment - 1) // segment)
        posted = 0
        doorbells = 0
        retries = 0
        remaining = ndesc
        while remaining:
            # Post as many descriptors as fit, then kick once (batching).
            batch = 0
            while remaining and device.queue.free_descriptors:
                device.queue.add_buf(segment, write=not write)
                ctx.clock.now += costs.virtio_add_buf
                remaining -= 1
                batch += 1
            if batch == 0:  # pragma: no cover - queue sized generously
                raise QueueFullError("no progress posting descriptors")
            device.queue.kick()
            machine.virtio_doorbell(ctx)
            doorbells += 1
            posted += batch
            # Device services the batch, then interrupts.
            ctx.clock.advance(device.service_ns(batch * segment))
            if plan is not None and plan.fires(
                    SITE_VIRTIO_COMPLETION, ctx.clock.now,
                    events=machine.events):
                device.queue.fail_used(1)
            machine.deliver_device_irq(ctx)
            failed = [d for d in device.queue.reap()
                      if d.status != STATUS_OK]
            # Errored completions are re-posted until they complete
            # clean — each retry pays the full doorbell/interrupt dance.
            while failed:
                if retries >= IO_RETRY_LIMIT:
                    raise IoCompletionError(
                        f"{len(failed)} virtio completions still errored "
                        f"after {retries} retries"
                    )
                retries += 1
                for desc in failed:
                    device.queue.add_buf(desc.length, write=desc.write)
                    ctx.clock.now += costs.virtio_add_buf
                device.queue.kick()
                machine.virtio_doorbell(ctx)
                doorbells += 1
                ctx.clock.advance(device.service_ns(len(failed) * segment))
                if plan is not None and plan.fires(
                        SITE_VIRTIO_COMPLETION, ctx.clock.now,
                        events=machine.events):
                    device.queue.fail_used(1)
                machine.deliver_device_irq(ctx)
                failed = [d for d in device.queue.reap()
                          if d.status != STATUS_OK]
        device.account(nbytes, write)
        return IoResult(nbytes=nbytes, descriptors=posted,
                        doorbells=doorbells, retries=retries)
