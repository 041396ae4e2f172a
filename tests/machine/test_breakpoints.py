"""The breakpoint register bank."""

import numpy as np
import pytest

from repro.errors import ConfigError, MachineError
from repro.machine.breakpoints import BreakpointUnit


def test_set_and_hit():
    unit = BreakpointUnit(n_registers=2)
    slot = unit.set_breakpoint(0x100, 16)
    assert unit.hits(0x100)
    assert unit.hits(0x10F)
    assert not unit.hits(0x110)
    unit.clear_breakpoint(slot)
    assert not unit.hits(0x100)


def test_bank_exhaustion_is_the_limiting_factor():
    """Table 12 discussion: a handful of registers cannot cover a
    simulated cache's complement."""
    unit = BreakpointUnit(n_registers=4)
    for i in range(4):
        unit.set_breakpoint(i * 64, 16)
    with pytest.raises(MachineError):
        unit.set_breakpoint(0x1000, 16)


def test_check_chunk_vectorized():
    unit = BreakpointUnit()
    unit.set_breakpoint(0x40, 16)
    vas = np.array([0x3C, 0x40, 0x44, 0x50, 0x4C], dtype=np.int64)
    assert unit.check_chunk(vas).tolist() == [False, True, True, False, True]


def test_bad_arguments():
    with pytest.raises(ConfigError):
        BreakpointUnit(n_registers=0)
    unit = BreakpointUnit()
    with pytest.raises(MachineError):
        unit.set_breakpoint(0, 0)
    with pytest.raises(MachineError):
        unit.clear_breakpoint(0)
    with pytest.raises(MachineError):
        unit.clear_breakpoint(99)
