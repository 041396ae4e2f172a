"""``tw_set_trap`` / ``tw_clear_trap`` — the machine-dependent layer.

Table 11 reports that only 5% of Tapeworm is machine-dependent: chiefly
the modified kernel entry code and these two routines.  This module is
that layer for the simulated DECstation: it knows which privileged
operation backs a trap of a given granularity (ECC check bits for cache
lines, page valid bits for pages — Table 2) and hides the mechanism from
everything above it.

It also enforces the host machine's real limitations from section 4.4:
ECC is checked on 4-word refills, so cache-trap sizes must be multiples
of 16 bytes, and setting a page trap must evict any stale hardware-TLB
entry that would otherwise shadow the cleared valid bit.
"""

from __future__ import annotations

import numpy as np

from repro._types import PAGE_SIZE, TrapMechanism
from repro.errors import TapewormError, UnsupportedStructure
from repro.machine.machine import Machine
from repro.machine.memory import GRANULE_BYTES


class TrapPrimitives:
    """The two primitives of Table 1, over a chosen mechanism."""

    def __init__(self, machine: Machine, mechanism: TrapMechanism) -> None:
        if mechanism not in (TrapMechanism.ECC, TrapMechanism.PAGE_VALID):
            raise UnsupportedStructure(
                f"no Tapeworm implementation uses {mechanism} as its "
                "primary trap mechanism on this machine"
            )
        self.machine = machine
        self.mechanism = mechanism
        self.set_calls = 0
        self.clear_calls = 0

    # -- activation (the "modified kernel entry code")

    def activate(self) -> None:
        self.machine.enable_mechanism(self.mechanism)

    def deactivate(self) -> None:
        self.machine.disable_mechanism(self.mechanism)

    # -- cache-line granularity (ECC check bits)

    def _require(self, mechanism: TrapMechanism, what: str) -> None:
        if self.mechanism is not mechanism:
            raise TapewormError(
                f"{what} requires the {mechanism.value} mechanism but this "
                f"Tapeworm instance uses {self.mechanism.value}"
            )

    def tw_set_trap(self, pa: int, size: int) -> None:
        """Set a memory trap on ``[pa, pa+size)``.

        ``size`` must respect the machine's ECC granule — this is the
        paper's line-size restriction ("ECC bits are checked on 4-word
        cache line refills.  This effectively limits the simulation of
        Tapeworm cache line sizes to multiples of 4 words").
        """
        self._require_granules(size, "tw_set_trap")
        self.machine.ecc.set_trap(pa, size)
        self.set_calls += 1

    def tw_set_traps(self, bases: np.ndarray, size: int) -> None:
        """``tw_set_trap(base, size)`` for every base, in order, as one
        ECC write (:meth:`ECCController.set_traps`): the same checks,
        trap bits and counts.  No bases, no calls."""
        if not len(bases):
            return
        self._require_granules(size, "tw_set_traps")
        self.machine.ecc.set_traps(bases, size)
        self.set_calls += len(bases)

    def _require_granules(self, size: int, what: str) -> None:
        self._require(TrapMechanism.ECC, what)
        if size % GRANULE_BYTES:
            raise UnsupportedStructure(
                f"trap size {size} is not a multiple of the {GRANULE_BYTES}-"
                "byte ECC check granule; line sizes must be multiples of "
                "4 words on this machine"
            )

    def tw_clear_trap(self, pa: int, size: int) -> None:
        """Clear previously set memory traps on ``[pa, pa+size)``."""
        self._require(TrapMechanism.ECC, "tw_clear_trap")
        self.machine.ecc.clear_trap(pa, size)
        self.clear_calls += 1

    def tw_retrap_lines(
        self,
        trapped: np.ndarray,
        untrapped: np.ndarray,
        line_bytes: int,
        clears: int,
    ) -> None:
        """A batch of ``tw_set_trap`` calls on the lines based at
        ``trapped`` and ``clears`` ``tw_clear_trap`` calls that leave the
        lines based at ``untrapped`` clear, applied at once
        (:meth:`ECCController.retrap_lines`)."""
        self._require(TrapMechanism.ECC, "tw_retrap_lines")
        self.machine.ecc.retrap_lines(trapped, untrapped, line_bytes, clears)
        self.set_calls += len(trapped)
        self.clear_calls += clears

    # -- page granularity (valid bits), for TLB simulation

    def tw_set_page_trap(self, tid: int, vpn: int) -> None:
        """Clear a page's valid bit and purge its hardware-TLB entry.

        Without the purge, a stale hardware translation would let the
        task keep using the page without trapping — the subset invariant
        the first-generation Tapeworm maintained on the R2000.
        """
        self._require(TrapMechanism.PAGE_VALID, "tw_set_page_trap")
        self.machine.mmu.table(tid).set_page_trap(vpn)
        self.machine.hw_tlb.probe_out(tid, vpn)
        self.set_calls += 1

    def tw_clear_page_trap(self, tid: int, vpn: int) -> None:
        self._require(TrapMechanism.PAGE_VALID, "tw_clear_page_trap")
        self.machine.mmu.table(tid).clear_page_trap(vpn)
        self.clear_calls += 1

    # -- geometry helpers used by the machine-independent layer

    def trap_granule_bytes(self) -> int:
        """The finest trap size this mechanism supports."""
        if self.mechanism is TrapMechanism.ECC:
            return GRANULE_BYTES
        return PAGE_SIZE
