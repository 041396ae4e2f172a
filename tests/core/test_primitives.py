"""tw_set_trap / tw_clear_trap over both mechanisms."""

import numpy as np
import pytest

from repro._types import TrapMechanism
from repro.core.primitives import TrapPrimitives
from repro.errors import TapewormError, UnsupportedStructure
from repro.machine.machine import Machine, MachineConfig


@pytest.fixture
def machine():
    return Machine(MachineConfig(memory_bytes=1024 * 1024, n_vpages=128))


def test_ecc_set_and_clear(machine):
    primitives = TrapPrimitives(machine, TrapMechanism.ECC)
    primitives.tw_set_trap(0x1000, 64)
    assert machine.ecc.is_trapped(0x1000)
    primitives.tw_clear_trap(0x1000, 64)
    assert not machine.ecc.is_trapped(0x1000)
    assert primitives.set_calls == 1
    assert primitives.clear_calls == 1


def test_line_size_must_match_ecc_granule(machine):
    """Section 4.4: line sizes limited to multiples of 4 words."""
    primitives = TrapPrimitives(machine, TrapMechanism.ECC)
    with pytest.raises(UnsupportedStructure):
        primitives.tw_set_trap(0x1000, 8)


def test_bulk_set_counts_one_call_per_range(machine):
    primitives = TrapPrimitives(machine, TrapMechanism.ECC)
    primitives.tw_set_traps(np.array([0x1000, 0x2000, 0x2040]), 64)
    assert primitives.set_calls == 3
    assert machine.ecc.stats_sets == 3
    assert machine.ecc.is_trapped(0x207F)
    primitives.tw_set_traps(np.empty(0, dtype=np.int64), 8)
    assert primitives.set_calls == 3
    with pytest.raises(UnsupportedStructure):
        primitives.tw_set_traps(np.array([0x1000]), 8)
    with pytest.raises(TapewormError):
        TrapPrimitives(machine, TrapMechanism.PAGE_VALID).tw_set_traps(
            np.array([0x1000]), 16
        )


def test_activate_enables_mechanism(machine):
    primitives = TrapPrimitives(machine, TrapMechanism.ECC)
    primitives.activate()
    assert TrapMechanism.ECC in machine.active_mechanisms
    primitives.deactivate()
    assert TrapMechanism.ECC not in machine.active_mechanisms


def test_page_trap_purges_hardware_tlb(machine):
    """A stale hardware translation must not shadow a valid-bit trap."""
    primitives = TrapPrimitives(machine, TrapMechanism.PAGE_VALID)
    table = machine.mmu.create_table(1)
    table.map(5, 9)
    machine.hw_tlb.insert(1, 5, 9)
    primitives.tw_set_page_trap(1, 5)
    assert table.is_page_trapped(5)
    assert machine.hw_tlb.probe(1, 5) is None
    primitives.tw_clear_page_trap(1, 5)
    assert not table.is_page_trapped(5)


def test_mechanism_mismatch_rejected(machine):
    ecc = TrapPrimitives(machine, TrapMechanism.ECC)
    with pytest.raises(TapewormError):
        ecc.tw_set_page_trap(1, 0)
    pages = TrapPrimitives(machine, TrapMechanism.PAGE_VALID)
    with pytest.raises(TapewormError):
        pages.tw_set_trap(0, 16)


def test_breakpoints_not_a_primary_mechanism(machine):
    with pytest.raises(UnsupportedStructure):
        TrapPrimitives(machine, TrapMechanism.BREAKPOINT)


def test_granule_sizes(machine):
    assert TrapPrimitives(machine, TrapMechanism.ECC).trap_granule_bytes() == 16
    assert (
        TrapPrimitives(machine, TrapMechanism.PAGE_VALID).trap_granule_bytes()
        == 4096
    )
