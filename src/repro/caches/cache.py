"""The set-associative cache model.

One class serves both drivers:

* the trace-driven simulator calls :meth:`SetAssociativeCache.access` on
  every address — search, then replace on a miss (Figure 1, left);
* Tapeworm calls :meth:`SetAssociativeCache.miss_insert` only on traps —
  the address is *known* to be missing, no search happens, and the
  displaced entry is returned so a trap can be set on it (Figure 1, right).

Keys are ``(space, line_addr)`` pairs: ``space`` is 0 for a
physically-indexed cache and the owning task id for a virtually-indexed
one (the paper: "the tid is used to form part of the cache (or TLB) tag").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Tuple

import numpy as np

from repro._types import Indexing
from repro.caches.config import CacheConfig
from repro.caches.replacement import LRUPolicy, ReplacementPolicy

Key = Tuple[int, int]  # (space, line_addr)


@dataclass
class MissOutcome:
    """What ``tw_replace`` must know after inserting a missing line.

    ``displaced`` lists the keys evicted to make room — Tapeworm sets a
    trap on each.  ``levels_missed`` names the hierarchy levels that
    missed (a single cache always reports ``("l1",)``; a two-level
    hierarchy may add ``"l2"``).
    """

    displaced: List[Key] = field(default_factory=list)
    levels_missed: Tuple[str, ...] = ("l1",)


class SetAssociativeCache:
    """A simulated cache: ``n_sets`` sets of ``associativity`` lines."""

    def __init__(
        self,
        config: CacheConfig,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        self._sets: list[list[Key]] = [[] for _ in range(config.n_sets)]
        self.searches = 0
        self.insertions = 0

    # -- indexing helpers

    def space_of(self, tid: int) -> int:
        """The tag-space for a task: tid when virtually indexed, else 0."""
        return tid if self.config.indexing is Indexing.VIRTUAL else 0

    def _locate(self, key: Key) -> tuple[list[Key], int]:
        """Return (set_entries, way_index_or_-1) for a line key."""
        entries = self._sets[self.config.set_of(key[1])]
        try:
            return entries, entries.index(key)
        except ValueError:
            return entries, -1

    # -- trace-driven path: search every address

    def access(self, tid: int, addr: int) -> tuple[bool, Key | None]:
        """Search for ``addr``; replace on miss.

        Returns ``(hit, displaced_key)``.  This is the trace-driven inner
        loop: the search happens whether the reference hits or misses.
        """
        key = (self.space_of(tid), self.config.line_of(addr))
        entries, way = self._locate(key)
        self.searches += 1
        if way >= 0:
            self.policy.touch(entries, way)
            return True, None
        displaced = self._insert(entries, key)
        return False, displaced

    # -- trap-driven path: insert a known-missing line

    def miss_insert(self, tid: int, addr: int) -> MissOutcome:
        """Insert a line that trapped (so is known absent); no search.

        This is what makes the trap-driven handler cheap: "because all
        such traps represent simulated cache misses, there is no need to
        search a data structure representing the simulated cache."
        """
        key = (self.space_of(tid), self.config.line_of(addr))
        entries = self._sets[self.config.set_of(key[1])]
        displaced = self._insert(entries, key)
        outcome = MissOutcome()
        if displaced is not None:
            outcome.displaced.append(displaced)
        return outcome

    def _insert(self, entries: list[Key], key: Key) -> Key | None:
        self.insertions += 1
        displaced = None
        if len(entries) >= self.config.associativity:
            victim = self.policy.victim_index(entries)
            displaced = entries.pop(victim)
        self.policy.insert(entries, key)
        return displaced

    # -- batched trap-driven path (direct-mapped, physically indexed)

    def direct_mapped_lines(self, sets: np.ndarray) -> np.ndarray:
        """The line address each given set holds, -1 where it is empty.

        Only meaningful for a direct-mapped, physically indexed cache,
        whose sets hold at most one key, all in space 0.
        """
        held = [self._sets[s] for s in sets.tolist()]
        return np.array(
            [entries[0][1] if entries else -1 for entries in held],
            dtype=np.int64,
        )

    def refill_direct_mapped(
        self, sets: np.ndarray, line_addrs: np.ndarray, insertions: int
    ) -> None:
        """Write back a batch of direct-mapped miss insertions.

        ``insertions`` misses, replayed elsewhere, left ``sets[i]``
        holding ``line_addrs[i]``; the sets change and the insertion
        count rises exactly as that many :meth:`miss_insert` calls would.
        """
        for set_index, line_addr in zip(sets.tolist(), line_addrs.tolist()):
            self._sets[set_index] = [(0, line_addr)]
        self.insertions += insertions

    # -- maintenance

    def contains(self, tid: int, addr: int) -> bool:
        """Presence test without touching replacement state."""
        key = (self.space_of(tid), self.config.line_of(addr))
        _, way = self._locate(key)
        return way >= 0

    def evict(self, tid: int, addr: int) -> bool:
        """Remove one line if present; True when something was removed."""
        key = (self.space_of(tid), self.config.line_of(addr))
        entries, way = self._locate(key)
        if way < 0:
            return False
        entries.pop(way)
        return True

    def flush_page(self, tid: int, page_addr: int, page_bytes: int) -> list[Key]:
        """Remove every line of one page; returns the removed keys.

        Used by ``tw_remove_page`` — "the page is removed by flushing it
        from the simulated cache and clearing all traps."
        """
        space = self.space_of(tid)
        # hoisted: set_of() would recompute both properties per line
        line_shift, n_sets = self.config.line_shift, self.config.n_sets
        sets = self._sets
        removed = []
        for line_addr in range(
            page_addr, page_addr + page_bytes, self.config.line_bytes
        ):
            key = (space, line_addr)
            entries = sets[(line_addr >> line_shift) % n_sets]
            if key in entries:
                entries.remove(key)
                removed.append(key)
        return removed

    def flush_space(self, tid: int) -> list[Key]:
        """Remove every line tagged with one task's space."""
        space = self.space_of(tid)
        removed = []
        for entries in self._sets:
            kept = [key for key in entries if key[0] != space]
            if len(kept) != len(entries):
                removed.extend(key for key in entries if key[0] == space)
                entries[:] = kept
        return removed

    def flush_all(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]

    def resident_keys(self) -> set[Key]:
        """Every key currently cached (for invariant checks)."""
        return {key for entries in self._sets for key in entries}

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def __len__(self) -> int:
        return self.occupancy()
