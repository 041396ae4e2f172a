"""The simulated TLB model.

Entries are packed keys, :func:`~repro.caches.kernels.pack` of the
superpage number and the owning tid, organized into sets like a cache
(fully associative by default).  Variable page sizes (Table 2) are
handled by tagging entries with the *superpage* number — ``page_bytes``
may be any power-of-two multiple of the 4 KB machine page, in which case
several machine pages share one simulated entry, exactly how a
superpage-capable TLB would behave.
"""

from __future__ import annotations

import numpy as np

from repro.caches.config import TLBConfig
from repro.caches.kernels import check_space, pack
from repro.caches.pipeline import tlb_kernel
from repro.caches.replacement import LRUPolicy, ReplacementPolicy


class SimulatedTLB:
    """A simulated translation buffer maintained by ``tw_replace``."""

    def __init__(
        self,
        config: TLBConfig,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        #: each set's keys in policy order
        self.sets: list[list[int]] = [[] for _ in range(config.n_sets)]
        self.searches = 0
        self.insertions = 0
        program = tlb_kernel(config, self.policy)
        #: the kernel factory's report: which chunk path, and why
        self.capabilities = program.capabilities
        self._chunk_run = program.run

    def superpage_of(self, vpn: int) -> int:
        """Collapse a machine-page VPN to its superpage number."""
        return vpn // self.config.pages_per_entry

    def _slot(self, tid: int, vpn: int) -> tuple[list[int], int]:
        """(set entries, key) of the entry covering ``vpn``."""
        superpage = self.superpage_of(vpn)
        key = pack(superpage, check_space(tid))
        return self.sets[superpage % self.config.n_sets], key

    def _locate(self, tid: int, vpn: int) -> tuple[list[int], int, int]:
        """(set entries, key, way or -1) of the entry covering ``vpn``."""
        entries, key = self._slot(tid, vpn)
        try:
            return entries, key, entries.index(key)
        except ValueError:
            return entries, key, -1

    def access(self, tid: int, vpn: int) -> tuple[bool, int | None]:
        """Trace-driven path: search, replace on miss."""
        entries, key, way = self._locate(tid, vpn)
        self.searches += 1
        if way >= 0:
            self.policy.touch(entries, way)
            return True, None
        return False, self._insert(entries, key)

    def access_chunk(self, tid: int, vpns: np.ndarray) -> int:
        """Trace-driven path over a whole chunk of VPNs; returns misses.

        Runs the kernel :func:`~repro.caches.pipeline.tlb_kernel` built
        for this TLB's configuration: under LRU or FIFO replacement a
        grouped-set pass (stable sort by set, consecutive-duplicate
        collapse, per-run stack update) that is bit-identical to calling
        :meth:`access` per reference — including the
        ``searches``/``insertions`` counters and the final entry state,
        which :meth:`miss_insert` shares.  Other policies get the exact
        per-reference loop; see ``self.capabilities`` for the decision.
        """
        return self._chunk_run(self, tid, vpns)

    def miss_insert(self, tid: int, vpn: int) -> int | None:
        """Trap-driven path: insert a known-missing translation.

        Returns the displaced key, on which Tapeworm must set page traps
        (one per machine page of the superpage), or None.
        """
        return self._insert(*self._slot(tid, vpn))

    def _insert(self, entries: list[int], key: int) -> int | None:
        self.insertions += 1
        displaced = None
        if len(entries) >= self.config.effective_associativity:
            victim = self.policy.victim_index(entries)
            displaced = entries.pop(victim)
        self.policy.insert(entries, key)
        return displaced

    def contains(self, tid: int, vpn: int) -> bool:
        return self._locate(tid, vpn)[2] >= 0

    def evict(self, tid: int, vpn: int) -> bool:
        entries, _, way = self._locate(tid, vpn)
        if way < 0:
            return False
        entries.pop(way)
        return True

    def resident_keys(self) -> set[int]:
        return {key for entries in self.sets for key in entries}

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self.sets)

    def __len__(self) -> int:
        return self.occupancy()
