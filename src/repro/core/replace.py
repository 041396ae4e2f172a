"""``tw_replace`` — inserting a missing line, choosing a victim.

Table 1: "Insert a missing memory location, defined by a pa (for a
physically-indexed cache) or va (for a virtually-indexed cache) into a
data structure for a simulated cache...  A displaced entry, selected on
the basis of various simulation parameters such as cache size, line size
or associativity, is returned by the call."

Because the simulated structure may be virtually indexed while traps are
physical (ECC bits live in memory), the displaced *virtual* line must be
translated back to a physical trap target through the recorded
registrations.  A displaced line whose page has meanwhile left the
Tapeworm domain simply gets no trap — its page was flushed anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.kernels import unpack
from repro.caches.multilevel import TwoLevelCache
from repro.core.registration import PageRegistry


@dataclass
class ReplaceOutcome:
    """What the miss handler must act on after one insertion."""

    #: physical base addresses needing a new trap, one per displaced line
    trap_targets: list[int] = field(default_factory=list)
    #: displaced keys that could not be translated to a physical target
    untranslatable: int = 0
    #: True when a two-level simulation also missed in L2
    l2_missed: bool = False


class Replacer:
    """Runs the replacement policy and resolves displaced trap targets."""

    def __init__(
        self,
        structure: SetAssociativeCache | TwoLevelCache,
        registry: PageRegistry,
    ) -> None:
        self.structure = structure
        self.registry = registry
        config = (
            structure.l1.config
            if isinstance(structure, TwoLevelCache)
            else structure.config
        )
        self._indexing = config.indexing
        self.line_bytes = config.line_bytes
        self._line_shift = config.line_shift

    def index_address(self, va: int, pa: int) -> int:
        """The address the structure is indexed/tagged by."""
        return va if self._indexing is Indexing.VIRTUAL else pa

    def trap_target(self, key: int) -> int | None:
        """Physical trap base of a resident or displaced packed key; None
        when its page has left the Tapeworm domain."""
        line, space = unpack(key)
        line_addr = line << self._line_shift
        if self._indexing is Indexing.PHYSICAL:
            if not self.registry.is_registered_frame(line_addr):
                return None
            return line_addr
        return self.registry.pa_of(space, line_addr)

    def tw_replace(self, tid: int, pa: int, va: int) -> ReplaceOutcome:
        """Insert the missing line containing (va, pa); return trap work."""
        addr = self.index_address(va, pa)
        outcome = ReplaceOutcome()
        if isinstance(self.structure, TwoLevelCache):
            result = self.structure.miss_insert(tid, addr)
            outcome.l2_missed = not result.l2_hit
            displaced = result.displaced_from_l1
        else:
            victim = self.structure.miss_insert(tid, addr)
            displaced = () if victim is None else (victim,)
        for key in displaced:
            target = self.trap_target(key)
            if target is None:
                outcome.untranslatable += 1
            else:
                outcome.trap_targets.append(target)
        return outcome
