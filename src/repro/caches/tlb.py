"""The simulated TLB model.

Entries map ``(tid, superpage_number)`` and are organized into sets like a
cache (fully associative by default).  Variable page sizes (Table 2) are
handled by tagging entries with the *superpage* number — ``page_bytes``
may be any power-of-two multiple of the 4 KB machine page, in which case
several machine pages share one simulated entry, exactly how a
superpage-capable TLB would behave.
"""

from __future__ import annotations

import numpy as np

from repro._types import PAGE_SIZE
from repro.caches.config import TLBConfig
from repro.caches.pipeline import tlb_kernel
from repro.caches.replacement import LRUPolicy, ReplacementPolicy

Key = tuple[int, int]  # (tid, superpage number)


class SimulatedTLB:
    """A simulated translation buffer maintained by ``tw_replace``."""

    def __init__(
        self,
        config: TLBConfig,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        self._sets: list[list[Key]] = [[] for _ in range(config.n_sets)]
        self.searches = 0
        self.insertions = 0
        program = tlb_kernel(config, self.policy)
        #: the kernel factory's report: which chunk path, and why
        self.capabilities = program.capabilities
        self._chunk_run = program.run

    def superpage_of(self, vpn: int) -> int:
        """Collapse a machine-page VPN to its superpage number."""
        return vpn // self.config.pages_per_entry

    def _set_of(self, superpage: int) -> int:
        return superpage % self.config.n_sets

    def _locate(self, key: Key) -> tuple[list[Key], int]:
        entries = self._sets[self._set_of(key[1])]
        try:
            return entries, entries.index(key)
        except ValueError:
            return entries, -1

    def access(self, tid: int, vpn: int) -> tuple[bool, Key | None]:
        """Trace-driven path: search, replace on miss."""
        key = (tid, self.superpage_of(vpn))
        entries, way = self._locate(key)
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

    def miss_insert(self, tid: int, vpn: int) -> Key | None:
        """Trap-driven path: insert a known-missing translation.

        Returns the displaced ``(tid, superpage)`` key, on which Tapeworm
        must set page traps (one per machine page of the superpage).
        """
        key = (tid, self.superpage_of(vpn))
        entries = self._sets[self._set_of(key[1])]
        return self._insert(entries, key)

    def _insert(self, entries: list[Key], key: Key) -> Key | None:
        self.insertions += 1
        displaced = None
        if len(entries) >= self.config.effective_associativity:
            victim = self.policy.victim_index(entries)
            displaced = entries.pop(victim)
        self.policy.insert(entries, key)
        return displaced

    def contains(self, tid: int, vpn: int) -> bool:
        _, way = self._locate((tid, self.superpage_of(vpn)))
        return way >= 0

    def evict(self, tid: int, vpn: int) -> bool:
        key = (tid, self.superpage_of(vpn))
        entries, way = self._locate(key)
        if way < 0:
            return False
        entries.pop(way)
        return True

    def flush_task(self, tid: int) -> list[Key]:
        """Remove every entry of one task (task exit / page-out)."""
        removed = []
        for entries in self._sets:
            kept = [key for key in entries if key[0] != tid]
            if len(kept) != len(entries):
                removed.extend(key for key in entries if key[0] == tid)
                entries[:] = kept
        return removed

    def machine_pages_of(self, key: Key) -> range:
        """The machine-page VPNs covered by one simulated entry."""
        base = key[1] * self.config.pages_per_entry
        return range(base, base + self.config.pages_per_entry)

    def resident_keys(self) -> set[Key]:
        return {key for entries in self._sets for key in entries}

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def __len__(self) -> int:
        return self.occupancy()
