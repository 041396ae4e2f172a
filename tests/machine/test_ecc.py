"""SEC-DED codec correctness and the diagnostic controller."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.ecc import (
    ECCController,
    ECCStatus,
    ECCWord,
    TAPEWORM_CHECK_BIT,
    TrapClass,
)
from repro.machine.memory import GRANULE_BYTES, PhysicalMemory


# ---------------------------------------------------------------------------
# bit-level codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("data", [0, 1, 0xFFFFFFFF, 0xDEADBEEF, 0x12345678])
def test_clean_word_decodes_ok(data):
    word = ECCWord(data)
    assert word.status() == (ECCStatus.OK, None)


@pytest.mark.parametrize("bit", range(32))
def test_single_data_bit_error_detected_and_located(bit):
    word = ECCWord(0xCAFEBABE)
    word.flip_data_bit(bit)
    status, position = word.status()
    assert status is ECCStatus.SINGLE_BIT
    assert position is not None and position > 0


@pytest.mark.parametrize("bit", range(7))
def test_single_check_bit_error_detected(bit):
    word = ECCWord(0x0BADF00D)
    word.flip_check_bit(bit)
    status, _ = word.status()
    assert status is ECCStatus.SINGLE_BIT


def test_double_data_bit_error_detected_as_double():
    word = ECCWord(0x12341234)
    word.flip_data_bit(3)
    word.flip_data_bit(17)
    status, _ = word.status()
    assert status is ECCStatus.DOUBLE_BIT


def test_tapeworm_trap_recognized_only_at_designated_bit():
    word = ECCWord(0xABCD0123)
    word.flip_check_bit(TAPEWORM_CHECK_BIT)
    assert word.is_tapeworm_trap()


@pytest.mark.parametrize("bit", range(1, 6))
def test_other_check_bits_are_not_tapeworm_traps(bit):
    word = ECCWord(0xABCD0123)
    word.flip_check_bit(bit)
    assert not word.is_tapeworm_trap()


def test_tapeworm_bit_plus_data_error_is_not_a_tapeworm_trap():
    """Footnote 1: a double-bit pattern means a true error occurred."""
    word = ECCWord(0x55AA55AA)
    word.flip_check_bit(TAPEWORM_CHECK_BIT)
    word.flip_data_bit(9)
    assert not word.is_tapeworm_trap()


def test_word_rejects_out_of_range_data():
    with pytest.raises(MachineError):
        ECCWord(2**32)


def test_flip_rejects_bad_bit_indices():
    word = ECCWord(0)
    with pytest.raises(MachineError):
        word.flip_check_bit(7)
    with pytest.raises(MachineError):
        word.flip_data_bit(32)


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


@pytest.fixture
def controller():
    return ECCController(PhysicalMemory(size_bytes=64 * 4096))


def test_set_and_clear_trap_roundtrip(controller):
    controller.set_trap(0x1000, 64)
    assert controller.is_trapped(0x1000)
    assert controller.is_trapped(0x103F)
    assert not controller.is_trapped(0x1040)
    controller.clear_trap(0x1000, 64)
    assert not controller.is_trapped(0x1000)


def test_trap_requires_granule_alignment(controller):
    with pytest.raises(MachineError):
        controller.set_trap(0x1008, 16)
    with pytest.raises(MachineError):
        controller.set_trap(0x1000, 8)


def test_recent_sets_log_drains(controller):
    controller.set_trap(0x2000, 32)
    recent = controller.drain_recent_sets()
    assert recent == [0x2000 // GRANULE_BYTES, 0x2000 // GRANULE_BYTES + 1]
    assert controller.drain_recent_sets() == []


def _state(controller):
    return (
        np.flatnonzero(controller.granule_trapped).tolist(),
        controller.tapeworm_granules().tolist(),
        controller.stats_sets,
        controller.drain_recent_sets(),
    )


@pytest.mark.parametrize("size", [16, 32, 64])
def test_bulk_set_equals_one_set_per_range(size):
    memory = PhysicalMemory(64 * 1024)
    bases = np.array([0x3000, 0x1000, 0x1000 + size, 0x8000], dtype=np.int64)
    one_by_one, bulk = ECCController(memory), ECCController(memory)
    for base in bases.tolist():
        one_by_one.set_trap(base, size)
    bulk.set_traps(bases, size)
    assert _state(bulk) == _state(one_by_one)
    bulk.set_traps(np.empty(0, dtype=np.int64), size)
    assert bulk.stats_sets == len(bases)


@pytest.mark.parametrize(
    "bases, size",
    [
        ([0x1000, 0x1008], 16),  # misaligned range
        ([0x1000], 8),  # not a whole granule
        ([0x1000, 64 * 1024 - 16], 32),  # runs past the end of memory
        ([-16, 0x1000], 16),
    ],
)
def test_bulk_set_checks_every_range_before_writing(bases, size):
    memory = PhysicalMemory(64 * 1024)
    controller = ECCController(memory)
    with pytest.raises(MachineError) as bulk_error:
        controller.set_traps(np.array(bases, dtype=np.int64), size)
    first_bad = next(
        base for base in bases
        if base < 0 or base + size > memory.size_bytes
        or base % GRANULE_BYTES or size % GRANULE_BYTES
    )
    with pytest.raises(MachineError) as single_error:
        ECCController(memory).set_trap(first_bad, size)
    assert str(bulk_error.value) == str(single_error.value)
    assert _state(controller) == ([], [], 0, [])


def test_classify_pure_tapeworm_trap(controller):
    controller.set_trap(0x3000, 16)
    assert controller.classify(0x3000) is TrapClass.TAPEWORM


def test_true_single_bit_error_detected_while_tapeworm_inactive(controller):
    controller.inject_true_error(0x4000, bit=5)
    assert controller.is_trapped(0x4000)
    assert controller.classify(0x4000) is TrapClass.TRUE_SINGLE


def test_true_error_detected_even_with_tapeworm_trap_set(controller):
    """The paper: 'Even when Tapeworm is active, it correctly detects
    true memory errors with high probability.'"""
    controller.set_trap(0x5000, 16)
    controller.inject_true_error(0x5004, bit=11)
    assert controller.classify(0x5000) is TrapClass.TRUE_DOUBLE


def test_double_bit_error_classified(controller):
    controller.inject_true_error(0x6000, bit=2, double=True)
    assert controller.classify(0x6000) is TrapClass.TRUE_DOUBLE


def test_scrub_preserves_tapeworm_trap(controller):
    controller.set_trap(0x7000, 16)
    controller.inject_true_error(0x7000, bit=1)
    controller.scrub(0x7000)
    assert controller.is_trapped(0x7000)  # our own trap survives
    assert controller.classify(0x7000) is TrapClass.TAPEWORM


def test_clear_trap_keeps_true_error_trapping(controller):
    controller.set_trap(0x8000, 16)
    controller.inject_true_error(0x8000, bit=3)
    controller.clear_trap(0x8000, 16)
    assert controller.is_trapped(0x8000)  # the fault is still there
    assert controller.classify(0x8000) is TrapClass.TRUE_SINGLE


def test_page_clear_keeps_only_its_true_error_granules_trapped(controller):
    controller.set_trap(0xA000, 4096)
    controller.inject_true_error(0xA7F4, bit=9)  # inside the cleared page
    controller.inject_true_error(0xB010, bit=2)  # past its end
    controller.clear_trap(0xA000, 4096)
    assert np.flatnonzero(controller.granule_trapped).tolist() == [
        0xA7F0 // GRANULE_BYTES,
        0xB010 // GRANULE_BYTES,
    ]
    assert controller.tapeworm_granules().tolist() == []
    assert controller.stats_clears == 1


def test_bitmap_matches_is_trapped(controller):
    controller.set_trap(0x9000, 4096)
    granules = np.arange(0x9000 // 16, (0x9000 + 4096) // 16)
    assert controller.granule_trapped[granules].all()
