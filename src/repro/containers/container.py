"""One secure container: a lightweight VM plus its init process."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.guest.process import Process
from repro.hypervisors.base import CpuCtx, Machine


@dataclass
class SecureContainer:
    """A container deployed in its own guest VM.

    Created by :class:`~repro.containers.runtime.RunDRuntime`; holds the
    guest machine, a vCPU context, and the container's init process.
    """

    container_id: str
    machine: Machine
    ctx: CpuCtx
    init: Process
    boot_ns: int = 0
    state: str = "running"  # running | crashed | stopped
    #: Times this container's guest was restarted by the supervisor.
    restarts: int = 0
    #: Memory-QoS eviction priority: under sustained min-watermark
    #: pressure the reclaim daemon evicts the *lowest* priority first.
    priority: int = 0
    #: Launch order within the runtime (1 for its first launch); the
    #: reclaim daemon breaks eviction-priority ties on it.
    launch_seq: int = 0

    def run(self, workload_factory, **params) -> Generator[None, None, None]:
        """Bind a workload to this container's vCPU and init process."""
        if self.state != "running":
            raise RuntimeError(f"container {self.container_id} is {self.state}")
        return workload_factory(self.machine, self.ctx, self.init, **params)

    def mark_crashed(self) -> None:
        """The guest died (panic/OOM); only a restart can revive it."""
        if self.state == "running":
            self.state = "crashed"

    def relaunch(self, init: Process) -> None:
        """Bring a crashed container back up with a fresh init process."""
        if self.state != "crashed":
            raise RuntimeError(
                f"container {self.container_id} is {self.state}, not crashed"
            )
        self.init = init
        self.state = "running"
        self.restarts += 1

    def stop(self) -> None:
        """Stop the container (idempotent).

        A crashed container transitions straight to stopped: its guest
        is already dead, so there is no init process to exit.
        """
        if self.state == "running":
            if self.init.alive:
                self.machine.exit(self.ctx, self.init)
            self.state = "stopped"
        elif self.state == "crashed":
            self.state = "stopped"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SecureContainer {self.container_id} on {self.machine.name} "
            f"({self.state})>"
        )
