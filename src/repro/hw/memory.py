"""Physical memory and frame allocation.

Each virtualization level owns a :class:`PhysicalMemory`: the host's
machine memory (frames identified by HPA frame numbers), an L1 VM's
guest-physical memory, and an L2 guest's guest-physical memory.  Frames
are identified by integer frame numbers; a :class:`PhysicalMemory` is
its own :class:`FrameAllocator`, which hands them out first-fit from a
free list and tracks ownership tags so tests can verify that teardown
releases everything.
"""

from __future__ import annotations

import bisect
from collections import deque
from operator import attrgetter
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Set

from repro.hw.types import GIB, PAGE_SHIFT, PAGE_SIZE, HardwareError


@dataclass
class FrameRange:
    """A contiguous run of physical frames [start, start + count)."""

    start: int
    count: int

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.start + self.count))

    @property
    def end(self) -> int:
        """One past the last frame of the range."""
        return self.start + self.count


_run_start = attrgetter("start")


class FrameAllocator:
    """First-fit allocator over a fixed pool of physical frames.

    The allocator is deliberately simple — allocation order is
    deterministic, which keeps simulations reproducible.  ``tag`` strings
    record the purpose of each allocation (page table, guest RAM, ...) so
    accounting reports and leak checks can group by owner.

    Two reuse policies are supported:

    * ``"firstfit"`` — freed frames coalesce back and are reused
      immediately (lowest address first).
    * ``"stream"`` — never-allocated frames are preferred; freed frames
      queue FIFO and are only reused once the fresh pool is exhausted.
      This models the streaming behaviour of a guest kernel's allocator
      over a large RAM pool, under which the paper's alloc/touch
      micro-benchmark keeps touching *new* guest-physical frames — the
      property that makes every page a fresh EPT violation in nested
      configurations (Figs. 4 and 10).
    """

    def __init__(self, total_frames: int, policy: str = "firstfit") -> None:
        if total_frames <= 0:
            raise ValueError(f"total_frames must be positive, got {total_frames}")
        if policy not in ("firstfit", "stream"):
            raise ValueError(f"unknown reuse policy {policy!r}")
        self.total_frames = total_frames
        self.policy = policy
        self._free: List[FrameRange] = [FrameRange(0, total_frames)]
        self._recycled: Deque[int] = deque()
        self._owner: Dict[int, str] = {}

    @property
    def free_frames(self) -> int:
        """Frames currently available."""
        return sum(r.count for r in self._free) + len(self._recycled)

    @property
    def used_frames(self) -> int:
        """Frames currently allocated."""
        return self.total_frames - self.free_frames

    def alloc(self, count: int = 1, tag: str = "anon") -> FrameRange:
        """Allocate ``count`` contiguous frames, first-fit.

        Raises :class:`MemoryError` when no contiguous run is available;
        callers that can tolerate fragmentation should allocate page by
        page.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for i, r in enumerate(self._free):
            if r.count >= count:
                got = FrameRange(r.start, count)
                if r.count == count:
                    del self._free[i]
                else:
                    r.start += count
                    r.count -= count
                for f in got:
                    self._owner[f] = tag
                return got
        raise MemoryError(
            f"out of physical frames: wanted {count} contiguous, "
            f"{self.free_frames} free (fragmented into {len(self._free)} runs)"
        )

    def alloc_frame(self, tag: str = "anon", prefer_recycled: bool = False) -> int:
        """Allocate a single frame and return its frame number.

        ``prefer_recycled`` inverts the "stream" policy's preference for
        never-allocated frames: recycled (previously freed, still
        host-backed) frames are handed out first.  The balloon driver
        uses this so reclaim releases frames the host actually backs
        instead of inflating into fresh, never-faulted guest memory.
        """
        recycled = self._recycled
        free = self._free
        if free and not (prefer_recycled and recycled):
            # First fit for one frame is the lowest run's first frame.
            run = free[0]
            frame = run.start
            if run.count == 1:
                del free[0]
            else:
                run.start += 1
                run.count -= 1
        elif recycled:
            frame = recycled.popleft()
        else:
            raise MemoryError("out of physical frames")
        self._owner[frame] = tag
        return frame

    def alloc_aligned(self, count: int, tag: str = "anon") -> FrameRange:
        """Allocate ``count`` contiguous frames aligned to ``count``.

        Used for huge-page backing, which needs both contiguity and
        natural alignment.  Raises :class:`MemoryError` when no free run
        can satisfy the alignment.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for i, r in enumerate(self._free):
            start = ((r.start + count - 1) // count) * count
            if start + count > r.end:
                continue
            # Carve [start, start+count) out of the run.
            del self._free[i]
            if start > r.start:
                self._free.insert(i, FrameRange(r.start, start - r.start))
                i += 1
            if start + count < r.end:
                self._free.insert(i, FrameRange(start + count,
                                                r.end - start - count))
            got = FrameRange(start, count)
            for f in got:
                self._owner[f] = tag
            return got
        raise MemoryError(
            f"no aligned run of {count} frames available "
            f"({self.free_frames} free)"
        )

    def free(self, frames: FrameRange) -> None:
        """Return a frame range to the pool.

        Under "firstfit" the range coalesces back into the free runs;
        under "stream" the frames queue FIFO for last-resort reuse.
        """
        for f in frames:
            if f not in self._owner:
                raise HardwareError(f"double free of frame {f:#x}")
            del self._owner[f]
        if self.policy == "stream":
            self._recycled.extend(frames)
        else:
            self._insert_free(frames.start, frames.count)

    def free_frame(self, frame: int) -> None:
        """Return one frame to the pool (:meth:`free` of one frame)."""
        owner = self._owner
        if frame not in owner:
            raise HardwareError(f"double free of frame {frame:#x}")
        del owner[frame]
        if self.policy == "stream":
            self._recycled.append(frame)
        else:
            self._insert_free(frame, 1)

    def owner_of(self, frame: int) -> Optional[str]:
        """Return the allocation tag of ``frame``, or None if free."""
        return self._owner.get(frame)

    def frames_tagged(self, tag: str) -> Set[int]:
        """All frames allocated under one tag."""
        return {f for f, t in self._owner.items() if t == tag}

    def usage_by_tag(self) -> Dict[str, int]:
        """Frame counts grouped by allocation tag (for accounting)."""
        usage: Dict[str, int] = {}
        for t in self._owner.values():
            usage[t] = usage.get(t, 0) + 1
        return usage

    def fragmentation_stats(self) -> Dict[str, int | float]:
        """External-fragmentation gauge over the coalesced free list.

        ``fragmentation`` is ``1 - largest_run / contiguous_free`` —
        0.0 when all contiguous free memory is one run, approaching 1.0
        as it shatters.  Recycled (FIFO-queued) frames are reported
        separately: they are reusable one at a time but never satisfy a
        contiguous allocation, so they do not enter the ratio.
        """
        contiguous = sum(r.count for r in self._free)
        largest = max((r.count for r in self._free), default=0)
        return {
            "free_frames": self.free_frames,
            "contiguous_free": contiguous,
            "free_runs": len(self._free),
            "largest_run": largest,
            "recycled": len(self._recycled),
            "fragmentation": 1.0 - largest / contiguous if contiguous else 0.0,
        }

    def _insert_free(self, start: int, count: int) -> None:
        # Keep the free list sorted by start and coalesce adjacent runs.
        # The runs are the allocator's own objects (callers' ranges are
        # never stored), so merging grows or shifts them in place.
        free = self._free
        i = bisect.bisect_left(free, start, key=_run_start)
        end = start + count
        prv = free[i - 1] if i else None
        nxt = free[i] if i < len(free) else None
        if (prv is not None and prv.end > start) or (
                nxt is not None and end > nxt.start):
            raise HardwareError("overlapping free ranges")
        if prv is not None and prv.end == start:
            prv.count += count
            if nxt is not None and nxt.start == end:
                prv.count += nxt.count
                del free[i]
        elif nxt is not None and nxt.start == end:
            nxt.start = start
            nxt.count += count
        else:
            free.insert(i, FrameRange(start, count))


class PhysicalMemory(FrameAllocator):
    """The physical address space of one virtualization level: the frame
    allocator over its ``size_bytes``.

    ``name`` identifies the level ("host", "l1-vm", "l2-guest-3", ...).
    We do not store page *contents* — the evaluation never depends on
    data values, only on mapping state — but the allocator tracks each
    frame's owner tag.
    """

    def __init__(self, name: str, size_bytes: int = 4 * GIB,
                 policy: str = "firstfit") -> None:
        if size_bytes % PAGE_SIZE:
            raise ValueError("memory size must be page-aligned")
        super().__init__(size_bytes >> PAGE_SHIFT, policy)
        self.name = name
