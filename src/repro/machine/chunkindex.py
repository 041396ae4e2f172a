"""Position indexes over chunk-sized arrays.

The chunk engine's in-order trap delivery queues, for every trapped
location (an ECC granule or a VPN), only that location's next
occurrence in the segment.  It asks three questions of a segment's
location array, and none of them may cost a scan of the segment:

* where does each location first occur (the queue's seeds)?
* where does the location at position i occur next (a location still
  trapped after its own reference re-queues itself)?
* where does location v next occur after position i (a handler just
  trapped v: a displaced line's granule, or an invalidated page)?

:class:`PositionIndex` answers all three from one stable argsort of the
array, built once per segment.  Because the sort is stable, the
positions of any one value appear in ascending order inside their sorted
run: a run's head is the value's first occurrence, each entry's
neighbour in the run is its next occurrence (an O(1) lookup, precomputed
for every position), and "every occurrence of v after i" is two binary
searches (locate v's run, then bisect the run by i) plus a slice.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.profile import phase

_EMPTY = np.empty(0, dtype=np.int64)


class PositionIndex:
    """Sorted-occurrence index: value -> ascending chunk positions."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        order = np.argsort(values, kind="stable")
        #: values in sorted order (runs of equal values are contiguous)
        self._values = values[order]
        #: original positions, ascending within each equal-value run
        self._positions = order
        # neighbours in a run: the later one is the earlier one's next
        # occurrence; a run's head is its value's first occurrence
        same = self._values[1:] == self._values[:-1]
        self._next = np.full(len(values), -1, dtype=np.int64)
        self._next[order[:-1][same]] = order[1:][same]
        heads = np.ones(len(values), dtype=bool)
        heads[1:] = ~same
        self._firsts = order[heads]

    def __len__(self) -> int:
        return len(self._values)

    def occurrences_after(self, value: int, position: int) -> np.ndarray:
        """All positions > ``position`` holding ``value``, ascending."""
        lo = int(np.searchsorted(self._values, value, side="left"))
        hi = int(np.searchsorted(self._values, value, side="right"))
        if lo == hi:
            return _EMPTY
        run = self._positions[lo:hi]
        start = int(np.searchsorted(run, position, side="right"))
        return run[start:]

    def occurrences(self, value: int) -> np.ndarray:
        """All positions holding ``value``, ascending."""
        return self.occurrences_after(value, -1)

    def next_occurrence(self, position: int) -> int:
        """The next position after ``position`` holding the same value,
        or -1 when it is the value's last occurrence."""
        return int(self._next[position])

    def first_occurrences(self) -> np.ndarray:
        """Each distinct value's first position, in value order."""
        return self._firsts


class RescanBinding:
    """Lazy, phase-labelled :class:`PositionIndex` over one chunk array.

    The chunk engine binds one of these per location array (ECC
    granules, VPNs) of a segment it delivers trap by trap; the index is
    built on the *first* lookup under the ``machine.rescan_index`` phase
    timer, so a mechanism with no trapped location in the segment never
    pays the argsort.
    """

    __slots__ = ("_values", "_kind", "_index")

    def __init__(self, values: np.ndarray, kind: str) -> None:
        self._values = values
        self._kind = kind
        self._index: PositionIndex | None = None

    def _built(self) -> PositionIndex:
        index = self._index
        if index is None:
            with phase("machine.rescan_index", kind=self._kind):
                index = self._index = PositionIndex(self._values)
        return index

    def occurrences_after(self, value: int, position: int) -> np.ndarray:
        return self._built().occurrences_after(value, position)

    def next_occurrence(self, position: int) -> int:
        return self._built().next_occurrence(position)

    def first_occurrences(self, trapped: np.ndarray) -> np.ndarray:
        """The first position of every value whose ``trapped`` flag is
        set (a per-position mask that is a function of the value)."""
        firsts = self._built().first_occurrences()
        return firsts[trapped[firsts]]
