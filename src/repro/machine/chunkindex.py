"""Position indexes over chunk-sized arrays.

The chunk engine's in-order trap delivery must, after each handled trap,
find every *later* position in the chunk that references a location the
handler just trapped (the displaced line's granule, or an invalidated
page's VPN).  Scanning the chunk tail per drained location is
O(traps x chunk) — the rescan cost that dominated trap-heavy segments.

:class:`PositionIndex` precomputes, once per segment, a stable argsort
of the value array.  Because the sort is stable, the positions of any
one value appear in ascending order inside their sorted run, so "every
occurrence of value v after position i" is two binary searches (locate
v's run, then bisect the run by i) plus a slice — O(log n + k) per
lookup, with the same result multiset as the linear rescan.  Pushing an
identical multiset of integer positions keeps the delivery heap's pop
sequence bit-identical.
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


class RescanBinding:
    """Lazy, phase-labelled :class:`PositionIndex` over one chunk array.

    The chunk engine binds one of these per rescannable value array (ECC
    granules, VPNs); the index is built on the *first* lookup — most
    segments deliver no displaced-location traps and never pay the
    argsort — under the ``machine.rescan_index`` phase timer.
    """

    __slots__ = ("_values", "_kind", "_index")

    def __init__(self, values: np.ndarray, kind: str) -> None:
        self._values = values
        self._kind = kind
        self._index: PositionIndex | None = None

    def occurrences_after(self, value: int, position: int) -> np.ndarray:
        index = self._index
        if index is None:
            with phase("machine.rescan_index", kind=self._kind):
                index = self._index = PositionIndex(self._values)
        return index.occurrences_after(value, position)
