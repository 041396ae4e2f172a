"""The Cache2000-style trace-driven simulator.

The trace-driven core loop (Figure 1, left)::

    while (address = next_address(trace)){
        if (search(address))
            hit++;
        else {
            miss++;
            replace(address);
        }
    }

Every address is searched, hit or miss — the cost structure that keeps
trace-driven slowdowns at ~20x even for caches that never miss (Figure
2).  Costs are calibrated so that hits cost ~53 cycles of processing
(Table 5's per-address average at mpeg_play's 4 KB miss ratio, net of
Pixie's generation share) and misses add a replacement premium; the
premium makes Cache2000's slowdown fall from ~30 at a 0.118 miss ratio
toward ~22 at zero, as in Figure 2's table.

The simulated cache is one :class:`~repro.caches.cache.SetAssociativeCache`
(``self.cache``), whichever path runs.  Which execution path serves a
configuration is decided *once*, by
:func:`repro.caches.pipeline.cache_kernel`: direct-mapped and LRU/FIFO
configs get a vectorized grouped-set kernel that replays into the
cache's own sets and counters, everything else (seeded-random
replacement consumes its RNG in global miss order, which grouping would
permute) gets the exact per-address ``access`` path.  The kernel is
fetched from the per-process memo at construction and invoked with zero
per-chunk dispatch; ``capabilities`` reports the decision and its
reasons.  ``force_general_path=True`` pins the reference path for
differential testing — forwarded to the factory, never branched on
here.

Per-chunk dispatch counts remain visible as ``fastpath_chunks`` /
``general_chunks`` and are published as
``tracing.cache2000.fastpath{taken=...}`` by :meth:`publish_metrics`.
"""

from __future__ import annotations

import numpy as np

from repro._types import Component
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.pipeline import cache_kernel
from repro.caches.replacement import LRUPolicy, ReplacementPolicy
from repro.caches.stats import CacheStats

#: processing cycles per address when the reference hits (search only)
CACHE2000_CYCLES_PER_HIT = 53

#: extra cycles when it misses (replacement-policy work)
CACHE2000_MISS_PREMIUM_CYCLES = 280


class Cache2000:
    """Trace-driven cache simulation with Table 5 cost accounting."""

    def __init__(
        self,
        config: CacheConfig,
        policy: ReplacementPolicy | None = None,
        force_general_path: bool = False,
    ) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        self.stats = CacheStats()
        self.processing_cycles = 0
        program = cache_kernel(
            config, self.policy, force_general=force_general_path
        )
        #: the kernel factory's report: which path, and why
        self.capabilities = program.capabilities
        self._run = program.run
        #: the simulated cache every path replays into
        self.cache = SetAssociativeCache(config, self.policy)
        self._fastpath = program.is_fast
        self._chunks = 0

    # ------------------------------------------------------------------

    @property
    def fastpath_chunks(self) -> int:
        """Chunks served by the vectorized kernel (telemetry compat)."""
        return self._chunks if self._fastpath else 0

    @property
    def general_chunks(self) -> int:
        """Chunks served by the exact per-address path."""
        return 0 if self._fastpath else self._chunks

    def simulate_chunk(
        self,
        addresses: np.ndarray,
        tid: int = 0,
        component: Component = Component.USER,
    ) -> int:
        """Simulate one chunk of addresses; returns its miss count."""
        n = len(addresses)
        if n == 0:
            return 0
        misses = self._run(self.cache, addresses, tid)
        self._chunks += 1
        self.stats.count_refs(component, n)
        self.stats.count_miss(component, misses)
        self.processing_cycles += (
            n * CACHE2000_CYCLES_PER_HIT
            + misses * CACHE2000_MISS_PREMIUM_CYCLES
        )
        return misses

    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        """Occupancy, for cross-path consistency checks."""
        return self.cache.occupancy()

    def resident_keys(self) -> set[int]:
        """Every resident packed key, whichever path ran."""
        return self.cache.resident_keys()

    def average_cycles_per_address(self) -> float:
        total = self.stats.total_refs
        if total == 0:
            return 0.0
        return self.processing_cycles / total

    def publish_metrics(self, metrics) -> None:
        """Copy the dispatch counts into a metrics registry
        (``tracing.cache2000.fastpath{taken=true|false}``)."""
        if self.fastpath_chunks:
            metrics.counter(
                "tracing.cache2000.fastpath", taken="true"
            ).inc(self.fastpath_chunks)
        if self.general_chunks:
            metrics.counter(
                "tracing.cache2000.fastpath", taken="false"
            ).inc(self.general_chunks)
