"""Instruction/data breakpoint registers (Table 2's third mechanism).

Breakpoints are the most portable trap primitive in Table 12 — every
surveyed CPU has instruction breakpoints — but real machines provide only
a handful of registers, so Tapeworm would set them "perhaps in clusters of
more than one" to cover a cache line.  This unit models a small bank of
range breakpoints on *virtual* addresses; it is offered as an alternative
``TrapMechanism`` and exercised by the mechanism-ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, MachineError


class BreakpointUnit:
    """A bank of ``n_registers`` address-range breakpoints."""

    def __init__(self, n_registers: int = 16) -> None:
        if n_registers <= 0:
            raise ConfigError(f"need at least one breakpoint register")
        self.n_registers = n_registers
        #: slot -> (start_va, end_va) half-open, or None when free
        self._ranges: list[tuple[int, int] | None] = [None] * n_registers

    def set_breakpoint(self, start: int, size: int) -> int:
        """Program a free register to trap on ``[start, start+size)``.

        Returns the register index; raises when the bank is exhausted —
        the practical reason breakpoints cannot back a full cache
        simulation (a simulated cache's complement is far larger than any
        breakpoint bank).
        """
        if size <= 0:
            raise MachineError(f"breakpoint size must be positive, got {size}")
        for slot, current in enumerate(self._ranges):
            if current is None:
                self._ranges[slot] = (start, start + size)
                return slot
        raise MachineError(
            f"all {self.n_registers} breakpoint registers are in use"
        )

    def clear_breakpoint(self, slot: int) -> None:
        if not 0 <= slot < self.n_registers:
            raise MachineError(f"no breakpoint register {slot}")
        if self._ranges[slot] is None:
            raise MachineError(f"breakpoint register {slot} is not set")
        self._ranges[slot] = None

    def active_ranges(self) -> list[tuple[int, int]]:
        return [r for r in self._ranges if r is not None]

    def n_active(self) -> int:
        return sum(1 for r in self._ranges if r is not None)

    def check_chunk(self, vas: np.ndarray) -> np.ndarray:
        """Boolean mask of chunk positions that hit any active range."""
        mask = np.zeros(len(vas), dtype=bool)
        for start, end in self.active_ranges():
            mask |= (vas >= start) & (vas < end)
        return mask

    def hits(self, va: int) -> bool:
        return any(start <= va < end for start, end in self.active_ranges())
