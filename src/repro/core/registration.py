"""Page registration bookkeeping for ``tw_register_page`` / ``tw_remove_page``.

Tapeworm records every ``(tid, physical page, virtual page)`` mapping the
VM system registers, for two reasons spelled out in section 3.2:

* shared physical pages carry a **reference count** — a second mapping of
  an already-registered frame sets no new traps ("this enables a new task
  to benefit from shared entries brought into the cache by another task"),
  and the frame is only flushed from the simulated cache when the last
  mapping is removed;
* virtually-indexed simulations need the recorded virtual-to-physical
  correspondence to translate a displaced *virtual* line back to the
  *physical* location a trap must be set on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._types import PAGE_SIZE
from repro.errors import TapewormError
from repro.machine.mmu import PAGE_SHIFT


@dataclass
class FrameRecord:
    """Registration state of one physical frame."""

    refcount: int = 0
    #: every (tid, vpn) currently mapping this frame
    mappings: set[tuple[int, int]] = field(default_factory=set)


class PageRegistry:
    """Who maps what, among the pages in the Tapeworm domain.

    Besides the frame/mapping tables, the registry maintains three
    derived indexes kept exact on every register/remove:

    * per task: ``tid -> {vpn: pfn}`` (insertion-ordered), so
      task-scoped sweeps never scan other tasks' mappings;
    * per superpage: ``(tid, vpn // pages_per_superpage) -> {vpn}``, so
      a TLB miss handler can enumerate the machine pages covered by one
      simulated entry without scanning the task (``pages_per_superpage``
      is the TLB's ``pages_per_entry``; the default of 1 keeps the index
      trivial for cache simulations, which never query it);
    * per frame: a boolean bitmap over frame numbers, grown on demand
      and always ending in an unregistered sentinel, so batched trap
      delivery tests a whole segment's frames in one clipped gather
      (:meth:`registered_mask`).
    """

    def __init__(self, pages_per_superpage: int = 1) -> None:
        if pages_per_superpage < 1:
            raise TapewormError(
                f"pages_per_superpage must be >= 1, got {pages_per_superpage}"
            )
        self.pages_per_superpage = pages_per_superpage
        self._frames: dict[int, FrameRecord] = {}
        self._by_mapping: dict[tuple[int, int], int] = {}  # (tid, vpn) -> pfn
        self._by_task: dict[int, dict[int, int]] = {}  # tid -> {vpn: pfn}
        #: (tid, superpage) -> vpns mapped under that simulated entry
        self._by_superpage: dict[tuple[int, int], set[int]] = {}
        #: pfn -> registered; the last entry is never registered, so a
        #: gather clipped to the end answers for every frame past it
        self._frame_bitmap = np.zeros(1, dtype=bool)

    @staticmethod
    def _split(pa: int, va: int) -> tuple[int, int]:
        return pa // PAGE_SIZE, va // PAGE_SIZE

    def register(self, tid: int, pa: int, va: int) -> bool:
        """Record one mapping; True when this is the frame's *first*
        mapping (i.e. traps must be set on its memory locations)."""
        pfn, vpn = self._split(pa, va)
        key = (tid, vpn)
        if key in self._by_mapping:
            raise TapewormError(
                f"mapping (tid={tid}, vpn={vpn}) registered twice"
            )
        record = self._frames.setdefault(pfn, FrameRecord())
        record.refcount += 1
        record.mappings.add(key)
        self._by_mapping[key] = pfn
        self._by_task.setdefault(tid, {})[vpn] = pfn
        superpage_key = (tid, vpn // self.pages_per_superpage)
        self._by_superpage.setdefault(superpage_key, set()).add(vpn)
        if record.refcount > 1:
            return False
        bitmap = self._frame_bitmap
        if pfn + 1 >= len(bitmap):
            grown = np.zeros(max(pfn + 2, 2 * len(bitmap)), dtype=bool)
            grown[: len(bitmap)] = bitmap
            self._frame_bitmap = grown
        self._frame_bitmap[pfn] = True
        return True

    def remove(self, tid: int, pa: int, va: int) -> bool:
        """Drop one mapping; True when the frame's count reached zero
        (i.e. the page must be flushed and its traps cleared)."""
        pfn, vpn = self._split(pa, va)
        key = (tid, vpn)
        if self._by_mapping.get(key) != pfn:
            raise TapewormError(
                f"mapping (tid={tid}, vpn={vpn}) was never registered "
                f"against frame {pfn}"
            )
        record = self._frames[pfn]
        record.refcount -= 1
        record.mappings.discard(key)
        del self._by_mapping[key]
        task_index = self._by_task[tid]
        del task_index[vpn]
        if not task_index:
            del self._by_task[tid]
        superpage_key = (tid, vpn // self.pages_per_superpage)
        under = self._by_superpage[superpage_key]
        under.discard(vpn)
        if not under:
            del self._by_superpage[superpage_key]
        if record.refcount == 0:
            del self._frames[pfn]
            self._frame_bitmap[pfn] = False
            return True
        return False

    # -- lookups

    def refcount(self, pa: int) -> int:
        record = self._frames.get(pa // PAGE_SIZE)
        return 0 if record is None else record.refcount

    def is_registered_frame(self, pa: int) -> bool:
        return pa // PAGE_SIZE in self._frames

    def registered_mask(self, pas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_registered_frame` over physical addresses."""
        return self._frame_bitmap.take(pas >> PAGE_SHIFT, mode="clip")

    def is_registered_mapping(self, tid: int, va: int) -> bool:
        return (tid, va // PAGE_SIZE) in self._by_mapping

    def pa_of(self, tid: int, va: int) -> int | None:
        """Physical address recorded for a task's virtual address."""
        pfn = self._by_mapping.get((tid, va // PAGE_SIZE))
        if pfn is None:
            return None
        return pfn * PAGE_SIZE + va % PAGE_SIZE

    def mappings_of_frame(self, pa: int) -> set[tuple[int, int]]:
        """All (tid, vpn) pairs sharing one frame."""
        record = self._frames.get(pa // PAGE_SIZE)
        return set() if record is None else set(record.mappings)

    def mappings_of_task(self, tid: int) -> list[tuple[int, int]]:
        """(vpn, pfn) pairs registered for one task, in registration
        order (served by the per-task index, no global scan)."""
        return list(self._by_task.get(tid, {}).items())

    def vpns_under(self, tid: int, superpage: int) -> list[int]:
        """Machine-page VPNs one task has registered under a simulated
        superpage entry, ascending.  O(pages found), not O(task pages) —
        the index the TLB miss handler hits on every trap."""
        return sorted(self._by_superpage.get((tid, superpage), ()))

    def registered_frames(self) -> set[int]:
        return set(self._frames)

    def __len__(self) -> int:
        return len(self._by_mapping)
