"""The set-associative cache model.

One class serves both drivers:

* the trace-driven simulator calls :meth:`SetAssociativeCache.access` on
  every address — search, then replace on a miss (Figure 1, left);
* Tapeworm calls :meth:`SetAssociativeCache.miss_insert` only on traps —
  the address is *known* to be missing, no search happens, and the
  displaced entry is returned so a trap can be set on it (Figure 1, right).

Keys are packed ints, :func:`~repro.caches.kernels.pack` of the line
number and a space: 0 for a physically-indexed cache and the owning
task id for a virtually-indexed one (the paper: "the tid is used to form
part of the cache (or TLB) tag").  A direct-mapped cache keeps its
residents in the :func:`~repro.caches.kernels.dm_grouped_pass` state
array, one key per set and -1 when empty, so the chunk kernels and
Tapeworm's batched delivery replay into it in place; a set-associative
one keeps each set's keys in a list in policy order.
"""

from __future__ import annotations

import numpy as np

from repro._types import Indexing
from repro.caches.config import CacheConfig
from repro.caches.kernels import check_space, pack, unpack
from repro.caches.replacement import LRUPolicy, ReplacementPolicy


class SetAssociativeCache:
    """A simulated cache: ``n_sets`` sets of ``associativity`` lines."""

    def __init__(
        self,
        config: CacheConfig,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        self.direct_mapped = config.associativity == 1
        #: direct-mapped: one key per set, -1 when empty; otherwise each
        #: set's keys in policy order
        self.sets: np.ndarray | list[list[int]] = (
            np.full(config.n_sets, -1, dtype=np.int64)
            if self.direct_mapped
            else [[] for _ in range(config.n_sets)]
        )
        self.searches = 0
        self.insertions = 0
        self._virtual = config.indexing is Indexing.VIRTUAL
        self._line_shift = config.line_shift
        self._set_mask = config.n_sets - 1

    # -- indexing helpers

    def space_of(self, tid: int) -> int:
        """The tag-space for a task: tid when virtually indexed, else 0."""
        return check_space(tid) if self._virtual else 0

    def _slot(self, tid: int, addr: int) -> tuple[int, int]:
        """(set index, key) of the line holding ``addr``."""
        line = addr >> self._line_shift
        return line & self._set_mask, pack(line, self.space_of(tid))

    def _way(self, set_index: int, key: int) -> int:
        """The key's position in its set, -1 when absent."""
        if self.direct_mapped:
            return 0 if self.sets[set_index] == key else -1
        try:
            return self.sets[set_index].index(key)
        except ValueError:
            return -1

    # -- trace-driven path: search every address

    def access(self, tid: int, addr: int) -> tuple[bool, int | None]:
        """Search for ``addr``; replace on miss.

        Returns ``(hit, displaced_key)``.  This is the trace-driven inner
        loop: the search happens whether the reference hits or misses.
        """
        set_index, key = self._slot(tid, addr)
        self.searches += 1
        way = self._way(set_index, key)
        if way < 0:
            return False, self._insert(set_index, key)
        if way:
            self.policy.touch(self.sets[set_index], way)
        return True, None

    # -- trap-driven path: insert a known-missing line

    def miss_insert(self, tid: int, addr: int) -> int | None:
        """Insert a line that trapped (so is known absent); no search.

        Returns the displaced key, or None.  This is what makes the
        trap-driven handler cheap: "because all such traps represent
        simulated cache misses, there is no need to search a data
        structure representing the simulated cache."
        """
        return self._insert(*self._slot(tid, addr))

    def _insert(self, set_index: int, key: int) -> int | None:
        self.insertions += 1
        if self.direct_mapped:
            held = int(self.sets[set_index])
            self.sets[set_index] = key
            return held if held >= 0 else None
        entries = self.sets[set_index]
        displaced = None
        if len(entries) >= self.config.associativity:
            victim = self.policy.victim_index(entries)
            displaced = entries.pop(victim)
        self.policy.insert(entries, key)
        return displaced

    # -- maintenance

    def contains(self, tid: int, addr: int) -> bool:
        """Presence test without touching replacement state."""
        return self._way(*self._slot(tid, addr)) >= 0

    def remove(self, key: int) -> bool:
        """Drop one key if resident; True when something was removed."""
        return self._remove(unpack(key)[0] & self._set_mask, key)

    def _remove(self, set_index: int, key: int) -> bool:
        if self.direct_mapped:
            if self.sets[set_index] != key:
                return False
            self.sets[set_index] = -1
            return True
        entries = self.sets[set_index]
        if key not in entries:
            return False
        entries.remove(key)
        return True

    def evict(self, tid: int, addr: int) -> bool:
        """Remove one line if present; True when something was removed."""
        return self._remove(*self._slot(tid, addr))

    def flush_page(self, tid: int, page_addr: int, page_bytes: int) -> list[int]:
        """Remove every line of one page; returns the removed keys.

        Used by ``tw_remove_page`` — "the page is removed by flushing it
        from the simulated cache and clearing all traps."  A
        direct-mapped cache drops the page's lines in one array pass.
        """
        shift = self._line_shift
        # the lines whose base address lies in the page (ceil divisions:
        # a line longer than a page is flushed with its first page)
        lines = np.arange(
            -(-page_addr >> shift),
            -(-(page_addr + page_bytes) >> shift),
            dtype=np.int64,
        )
        keys = pack(lines, self.space_of(tid))
        sets = lines & self._set_mask
        if not self.direct_mapped:
            return [
                key
                for set_index, key in zip(sets.tolist(), keys.tolist())
                if self._remove(set_index, key)
            ]
        held = self.sets[sets] == keys
        self.sets[sets[held]] = -1
        return keys[held].tolist()

    def resident_keys(self) -> set[int]:
        """Every key currently cached (for invariant checks)."""
        if self.direct_mapped:
            return set(self.sets[self.sets >= 0].tolist())
        return {key for entries in self.sets for key in entries}

    def occupancy(self) -> int:
        if self.direct_mapped:
            return int(np.count_nonzero(self.sets >= 0))
        return sum(len(entries) for entries in self.sets)

    def __len__(self) -> int:
        return self.occupancy()
