"""The virtual memory system.

Tapeworm "requires assistance from the OS virtual memory system": on the
first fault to a page the VM system registers it via ``tw_register_page``;
on unmap (task exit or page-out) it calls ``tw_remove_page``.  Shared
physical pages are registered once per mapping, with Tapeworm keeping a
reference count.

The VM system is also the paper's dominant source of measurement
variance: "the distributions of physical page frames allocated to a task,
which change from run to run, affect the sequence of addresses seen by a
physically-indexed cache" (Table 9).  The allocator here draws frames from
a pool ordered by a *trial-seeded* shuffle (policy ``random``) or kept in
ascending order (policy ``sequential``), so that variance can be produced
or suppressed at will.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro._types import PAGE_SIZE
from repro.errors import ConfigError, KernelError, MemoryFault
from repro.machine.machine import Machine
from repro.machine.mmu import PageTable


@dataclass(frozen=True)
class Region:
    """One mapped range of a task's address space.

    ``share_key`` names a machine-wide sharing domain: every mapping of
    ``(share_key, page offset within region)`` resolves to the same
    physical frame.  Text segments of re-executed binaries (sdet's shells,
    kenbus's tools) and the servers' code use this, exercising Tapeworm's
    shared-page reference counting.
    """

    name: str
    start_vpn: int
    n_pages: int
    share_key: str | None = None

    def __post_init__(self) -> None:
        if self.start_vpn < 0 or self.n_pages <= 0:
            raise ConfigError(
                f"bad region {self.name!r}: start_vpn={self.start_vpn}, "
                f"n_pages={self.n_pages}"
            )

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.n_pages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def start_va(self) -> int:
        return self.start_vpn * PAGE_SIZE

    @property
    def size_bytes(self) -> int:
        return self.n_pages * PAGE_SIZE


@dataclass(frozen=True)
class AddressSpaceLayout:
    """A task's declared regions.  Faults outside every region are treated
    as anonymous private pages (heap/stack growth)."""

    regions: tuple[Region, ...] = ()

    def __post_init__(self) -> None:
        spans = sorted((r.start_vpn, r.end_vpn, r.name) for r in self.regions)
        for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ConfigError(f"regions {n1!r} and {n2!r} overlap")

    def region_of(self, vpn: int) -> Region | None:
        for region in self.regions:
            if region.contains(vpn):
                return region
        return None

    def region_named(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")


#: VM -> Tapeworm notification hooks.
RegisterHook = Callable[[int, int, int], None]  # (tid, pa, va)
RemoveHook = Callable[[int, int, int], None]


class VMSystem:
    """Frame allocation, fault handling, and the Tapeworm page protocol."""

    ALLOC_POLICIES = ("random", "sequential")

    def __init__(
        self,
        machine: Machine,
        alloc_policy: str = "random",
        trial_seed: int = 0,
        reserved_frames: int = 64,
    ) -> None:
        """``reserved_frames`` models Tapeworm's boot-time allocation:
        "about 256 K-bytes of physical memory are allocated for Tapeworm
        at boot time.  This removes 64 pages from the free memory pool."
        """
        if alloc_policy not in self.ALLOC_POLICIES:
            raise ConfigError(
                f"unknown allocation policy {alloc_policy!r}; "
                f"choose from {self.ALLOC_POLICIES}"
            )
        self.machine = machine
        self.alloc_policy = alloc_policy
        self.trial_seed = trial_seed
        n_frames = machine.memory.n_frames
        if reserved_frames >= n_frames:
            raise ConfigError(
                f"cannot reserve {reserved_frames} of {n_frames} frames"
            )
        frames = np.arange(reserved_frames, n_frames, dtype=np.int64)
        if alloc_policy == "random":
            rng = np.random.default_rng(trial_seed)
            rng.shuffle(frames)
        # the free pool: frames never allocated, in policy order from
        # ``_next`` on, and the frames given back, reused last-in
        # first-out before any fresh one
        self._fresh = frames
        self._next = 0
        self._returned: list[int] = []
        #: (share_key, page offset) -> (pfn, refcount)
        self._shared: dict[tuple[str, int], list[int]] = {}
        #: layouts by tid
        self._layouts: dict[int, AddressSpaceLayout] = {}
        #: eviction bookkeeping: mapped private pages in fault order
        self._private_pages: list[tuple[int, int]] = []
        self.on_register_page: RegisterHook | None = None
        self.on_remove_page: RemoveHook | None = None
        self.faults = 0
        self.evictions = 0

    def reshuffle_free_frames(self, trial_seed: int) -> None:
        """Re-draw the free pool's policy order under a new trial seed.

        Used at a warm-state snapshot fork: the warmup prefix ran under a
        shared plan seed, so every trial forked from it would otherwise
        allocate the *same* frames — erasing the paper's dominant
        physically-indexed variance source.  Re-shuffling the remaining
        free frames with the measurement trial's seed restores per-trial
        allocation variation from the fork point on.  Sequential policy
        is order-insensitive and left untouched.
        """
        self.trial_seed = trial_seed
        if self.alloc_policy != "random" or not self.free_frames():
            return
        frames = np.sort(
            np.concatenate(
                [self._fresh[self._next :], np.array(self._returned, dtype=np.int64)]
            )
        )
        rng = np.random.default_rng(trial_seed)
        rng.shuffle(frames)
        self._fresh = frames
        self._next = 0
        self._returned = []

    # -- task lifecycle

    def attach_task(self, tid: int, layout: AddressSpaceLayout) -> PageTable:
        self._layouts[tid] = layout
        return self.machine.mmu.create_table(tid)

    def detach_task(self, tid: int) -> None:
        """Unmap everything a task mapped (task termination)."""
        table = self.machine.mmu.table(tid)
        for vpn in table.mapped_vpns():
            self.unmap_page(tid, int(vpn))
        self.machine.mmu.destroy_table(tid)
        del self._layouts[tid]

    # -- fault path

    def free_frames(self) -> int:
        return len(self._returned) + len(self._fresh) - self._next

    def _allocate_frame(self) -> int:
        if not self.free_frames():
            self._evict_one()
        if self._returned:
            return self._returned.pop()
        if self._next == len(self._fresh):
            raise MemoryFault("out of physical memory and nothing evictable")
        pfn = int(self._fresh[self._next])
        self._next += 1
        return pfn

    def fault(self, tid: int, vpn: int) -> int:
        """Handle a first-touch fault: map the page, tell Tapeworm.

        Returns the frame used.  Shared regions resolve through the
        machine-wide share table; Tapeworm is notified for *every*
        mapping, shared or not — its refcount logic decides whether new
        traps are set (paper section 3.2).
        """
        self.faults += 1
        table = self.machine.mmu.table(tid)
        layout = self._layouts[tid]
        region = layout.region_of(vpn)
        share_entry = None
        if region is not None and region.share_key is not None:
            share_entry = (region.share_key, vpn - region.start_vpn)

        if share_entry is not None and share_entry in self._shared:
            record = self._shared[share_entry]
            pfn = record[0]
            record[1] += 1
        else:
            pfn = self._allocate_frame()
            if share_entry is not None:
                self._shared[share_entry] = [pfn, 1]
            else:
                self._private_pages.append((tid, vpn))
        table.map(vpn, pfn)
        if self.on_register_page is not None:
            self.on_register_page(tid, pfn * PAGE_SIZE, vpn * PAGE_SIZE)
        return pfn

    # -- unmap path

    def unmap_page(self, tid: int, vpn: int) -> None:
        """Remove one mapping; frees the frame when no mapping remains."""
        table = self.machine.mmu.table(tid)
        pfn = table.frame_of(vpn)
        if self.on_remove_page is not None:
            self.on_remove_page(tid, pfn * PAGE_SIZE, vpn * PAGE_SIZE)
        table.unmap(vpn)
        self.machine.hw_tlb.probe_out(tid, vpn)

        layout = self._layouts[tid]
        region = layout.region_of(vpn)
        if region is not None and region.share_key is not None:
            entry = (region.share_key, vpn - region.start_vpn)
            record = self._shared[entry]
            record[1] -= 1
            if record[1] == 0:
                del self._shared[entry]
                self._returned.append(pfn)
        else:
            try:
                self._private_pages.remove((tid, vpn))
            except ValueError:
                pass
            self._returned.append(pfn)

    def _evict_one(self) -> None:
        """Page out the oldest private page (simple FIFO paging)."""
        while self._private_pages:
            tid, vpn = self._private_pages[0]
            if self.machine.mmu.has_table(tid):
                self.evictions += 1
                self.unmap_page(tid, vpn)
                return
            self._private_pages.pop(0)

    # -- introspection

    def share_refcount(self, share_key: str, page_offset: int) -> int:
        record = self._shared.get((share_key, page_offset))
        return 0 if record is None else record[1]

    def mappings_of_frame(self, pfn: int) -> list[tuple[int, int]]:
        """All (tid, vpn) pairs currently mapping one frame."""
        hits = []
        for table in self.machine.mmu.tables():
            vpns = np.nonzero(table.v2p == pfn)[0]
            hits.extend((table.tid, int(v)) for v in vpns)
        return hits
