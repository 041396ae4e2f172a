"""Page tables, page valid bits, and vectorized address translation.

Tapeworm's second trap mechanism (used for TLB simulation, where the
required granularity is a whole page) is the *page valid bit*: clearing the
valid bit of a resident page makes the next reference trap to the kernel.
Because the page really is resident, Tapeworm keeps "an extra bit
maintained in software to indicate the true state of the page" (paper,
footnote 2) — that is the ``resident`` bit here.

Translation is chunk-vectorized, which is what makes simulating tens of
millions of references practical in Python: the execution engine gathers
a whole numpy array of frames from ``v2p`` at once (the same gather finds
the unmapped pages it must fault in first) and builds the physical
addresses with :meth:`PageTable.addresses_from`;
:meth:`PageTable.translate` does both for its other callers.
"""

from __future__ import annotations

import numpy as np

from repro._types import PAGE_SIZE
from repro.errors import MachineError, MemoryFault

PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
OFFSET_MASK = PAGE_SIZE - 1


class PageTable:
    """One task's virtual-to-physical mapping.

    Arrays are indexed by virtual page number (VPN):

    ``v2p``
        physical frame number, or -1 when unmapped.
    ``valid``
        the hardware valid bit.  The MMU traps when it is clear.
    ``resident``
        Tapeworm's software copy of the true page state.  ``valid`` may be
        cleared while ``resident`` stays set — that is a Tapeworm page
        trap, not a page fault.
    """

    def __init__(self, tid: int, n_vpages: int) -> None:
        if n_vpages <= 0:
            raise MachineError(f"n_vpages must be positive, got {n_vpages}")
        self.tid = tid
        self.n_vpages = n_vpages
        self.v2p = np.full(n_vpages, -1, dtype=np.int64)
        self.valid = np.zeros(n_vpages, dtype=bool)
        self.resident = np.zeros(n_vpages, dtype=bool)
        self._recent_invalidations: list[int] = []

    # -- mapping management (called by the kernel VM system)

    def check_vpn(self, vpn: int) -> None:
        if not 0 <= vpn < self.n_vpages:
            raise MemoryFault(
                f"vpn {vpn} outside task {self.tid}'s "
                f"{self.n_vpages}-page address space"
            )

    def map(self, vpn: int, pfn: int) -> None:
        """Install a mapping and mark the page valid and resident."""
        self.check_vpn(vpn)
        if self.v2p[vpn] >= 0:
            raise MachineError(f"vpn {vpn} of task {self.tid} already mapped")
        self.v2p[vpn] = pfn
        self.valid[vpn] = True
        self.resident[vpn] = True

    def unmap(self, vpn: int) -> int:
        """Remove a mapping, returning the frame it occupied."""
        self.check_vpn(vpn)
        pfn = int(self.v2p[vpn])
        if pfn < 0:
            raise MachineError(f"vpn {vpn} of task {self.tid} not mapped")
        self.v2p[vpn] = -1
        self.valid[vpn] = False
        self.resident[vpn] = False
        return pfn

    def is_mapped(self, vpn: int) -> bool:
        self.check_vpn(vpn)
        return bool(self.v2p[vpn] >= 0)

    def frame_of(self, vpn: int) -> int:
        self.check_vpn(vpn)
        pfn = int(self.v2p[vpn])
        if pfn < 0:
            raise MemoryFault(f"vpn {vpn} of task {self.tid} not mapped")
        return pfn

    def mapped_vpns(self) -> np.ndarray:
        """All currently mapped VPNs, ascending."""
        return np.nonzero(self.v2p >= 0)[0]

    # -- Tapeworm page traps (valid bit games)

    def set_page_trap(self, vpn: int) -> None:
        """Clear the valid bit of a resident page so its next use traps."""
        self.check_vpn(vpn)
        if not self.resident[vpn]:
            raise MachineError(
                f"cannot set page trap on non-resident vpn {vpn} "
                f"of task {self.tid}"
            )
        self.valid[vpn] = False
        self._recent_invalidations.append(vpn)

    def clear_page_trap(self, vpn: int) -> None:
        """Restore the valid bit of a resident page."""
        self.check_vpn(vpn)
        if not self.resident[vpn]:
            raise MachineError(
                f"cannot clear page trap on non-resident vpn {vpn} "
                f"of task {self.tid}"
            )
        self.valid[vpn] = True

    def is_page_trapped(self, vpn: int) -> bool:
        self.check_vpn(vpn)
        return bool(self.resident[vpn] and not self.valid[vpn])

    def drain_recent_invalidations(self) -> list[int]:
        """VPNs whose valid bit was cleared since the last drain."""
        recent, self._recent_invalidations = self._recent_invalidations, []
        return recent

    # -- translation

    def translate(self, vas: np.ndarray) -> np.ndarray:
        """Translate a chunk of virtual addresses to physical addresses.

        Every page must already be mapped; the execution engine pre-faults
        unmapped pages through the kernel before calling this.
        """
        vpns = vas >> PAGE_SHIFT
        pfns = self.v2p[vpns]
        if pfns.min(initial=0) < 0:
            bad = int(vpns[np.nonzero(pfns < 0)[0][0]])
            raise MemoryFault(
                f"unmapped vpn {bad} reached translation in task {self.tid}"
            )
        return self.addresses_from(pfns, vas)

    @staticmethod
    def addresses_from(pfns: np.ndarray, vas: np.ndarray) -> np.ndarray:
        """The physical addresses of ``vas``, given the frames ``pfns``
        already gathered from ``v2p`` for them (every page mapped)."""
        return (pfns << PAGE_SHIFT) | (vas & OFFSET_MASK)


class MMU:
    """Holds the page table of every live task."""

    def __init__(self, n_vpages: int) -> None:
        self.n_vpages = n_vpages
        self._tables: dict[int, PageTable] = {}

    def create_table(self, tid: int) -> PageTable:
        if tid in self._tables:
            raise MachineError(f"task {tid} already has a page table")
        table = PageTable(tid, self.n_vpages)
        self._tables[tid] = table
        return table

    def destroy_table(self, tid: int) -> PageTable:
        try:
            return self._tables.pop(tid)
        except KeyError:
            raise MachineError(f"task {tid} has no page table") from None

    def table(self, tid: int) -> PageTable:
        try:
            return self._tables[tid]
        except KeyError:
            raise MachineError(f"task {tid} has no page table") from None

    def has_table(self, tid: int) -> bool:
        return tid in self._tables

    def tables(self) -> list[PageTable]:
        return list(self._tables.values())
