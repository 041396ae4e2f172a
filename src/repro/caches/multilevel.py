"""Split and two-level cache hierarchies.

Section 3.2 of the paper notes that ``tw_replace`` "can simulate different
line sizes and associativities, as well as more complex cache structures
including split, unified or multi-level caches."  These compositions make
that concrete:

* :class:`SplitCache` — separate I and D caches behind one interface.
* :class:`TwoLevelCache` — an inclusive L1/L2 pair.  For the trap-driven
  driver the trap condition is *absence from L1* (every L1 miss traps; the
  handler then probes L2 in software), so both L1 and L2 miss counts are
  observable from traps alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.replacement import ReplacementPolicy
from repro.errors import ConfigError


class SplitCache:
    """Separate instruction and data caches (a split L1)."""

    def __init__(
        self,
        icache_config: CacheConfig,
        dcache_config: CacheConfig,
        policy: ReplacementPolicy | None = None,
        dpolicy: ReplacementPolicy | None = None,
    ) -> None:
        self.icache = SetAssociativeCache(icache_config, policy)
        self.dcache = SetAssociativeCache(dcache_config, dpolicy)

    def access(self, tid: int, addr: int, is_instruction: bool):
        side = self.icache if is_instruction else self.dcache
        return side.access(tid, addr)

    def miss_insert(self, tid: int, addr: int, is_instruction: bool):
        side = self.icache if is_instruction else self.dcache
        return side.miss_insert(tid, addr)


@dataclass
class TwoLevelOutcome:
    """Result of one two-level access or miss insertion."""

    l1_hit: bool
    l2_hit: bool
    #: keys that left L1 (need traps under the trap-driven driver)
    displaced_from_l1: list[int]


class TwoLevelCache:
    """An inclusive L1/L2 hierarchy sharing line size.

    Inclusion is enforced: a line displaced from L2 is also invalidated
    in L1.  Under the trap-driven driver the trap set is the complement
    of L1's contents, so ``displaced_from_l1`` is exactly the set of
    locations needing new traps after each event.
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        l1_policy: ReplacementPolicy | None = None,
        l2_policy: ReplacementPolicy | None = None,
    ) -> None:
        if l1_config.line_bytes != l2_config.line_bytes:
            raise ConfigError(
                "two-level hierarchy requires matching line sizes, got "
                f"{l1_config.line_bytes} and {l2_config.line_bytes}"
            )
        if l2_config.size_bytes < l1_config.size_bytes:
            raise ConfigError("L2 must be at least as large as L1")
        if l1_config.indexing is not l2_config.indexing:
            raise ConfigError("L1 and L2 must use the same indexing")
        self.l1 = SetAssociativeCache(l1_config, l1_policy)
        self.l2 = SetAssociativeCache(l2_config, l2_policy)
        self.l1_misses = 0
        self.l2_misses = 0

    def _fill(self, tid: int, addr: int) -> TwoLevelOutcome:
        """Bring a line missing from L1 into both levels."""
        l2_hit = self.l2.contains(tid, addr)
        displaced_from_l1: list[int] = []
        if l2_hit:
            # refresh L2 recency
            self.l2.access(tid, addr)
        else:
            self.l2_misses += 1
            victim = self.l2.miss_insert(tid, addr)
            # inclusion: anything leaving L2 must leave L1 too
            if victim is not None and self.l1.remove(victim):
                displaced_from_l1.append(victim)
        self.l1_misses += 1
        victim = self.l1.miss_insert(tid, addr)
        if victim is not None:
            displaced_from_l1.append(victim)
        return TwoLevelOutcome(
            l1_hit=False, l2_hit=l2_hit, displaced_from_l1=displaced_from_l1
        )

    def access(self, tid: int, addr: int) -> TwoLevelOutcome:
        """Trace-driven path: search L1, then L2, then fill."""
        hit, _ = (
            (True, None) if self.l1.contains(tid, addr) else (False, None)
        )
        if hit:
            self.l1.access(tid, addr)
            return TwoLevelOutcome(l1_hit=True, l2_hit=True, displaced_from_l1=[])
        return self._fill(tid, addr)

    def miss_insert(self, tid: int, addr: int) -> TwoLevelOutcome:
        """Trap-driven path: the reference trapped, so it missed L1."""
        return self._fill(tid, addr)

    def check_inclusion(self) -> bool:
        """Invariant: every L1-resident line is L2-resident."""
        return self.l1.resident_keys() <= self.l2.resident_keys()
