"""PositionIndex: the trap-rescan index must equal the linear scan.

Every answer the chunk engine reads off the index — later occurrences
of a value, each value's first occurrence, each position's next
occurrence — is checked against a scan of the array.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.chunkindex import PositionIndex, RescanBinding


def _linear(values: np.ndarray, value: int, position: int) -> list[int]:
    """The replaced O(chunk) rescan, as ground truth."""
    later = np.nonzero(values[position + 1 :] == value)[0]
    return [position + 1 + int(offset) for offset in later]


def test_occurrences_after_matches_linear_scan():
    values = np.array([5, 3, 5, 5, 2, 3, 5, 9], dtype=np.int64)
    index = PositionIndex(values)
    for value in (5, 3, 2, 9, 7):
        for position in range(-1, len(values)):
            assert list(index.occurrences_after(value, position)) == _linear(
                values, value, position
            )


def test_occurrences_are_ascending_and_complete():
    values = np.array([1, 1, 1, 1], dtype=np.int64)
    index = PositionIndex(values)
    assert list(index.occurrences(1)) == [0, 1, 2, 3]
    assert list(index.occurrences_after(1, 1)) == [2, 3]
    assert list(index.occurrences(2)) == []


def test_missing_value_is_empty_not_error():
    index = PositionIndex(np.array([10, 20], dtype=np.int64))
    assert len(index.occurrences_after(15, -1)) == 0


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=12), min_size=1, max_size=60
    ),
    value=st.integers(min_value=0, max_value=14),
    position=st.integers(min_value=-1, max_value=60),
)
def test_property_index_equals_linear_rescan(values, value, position):
    array = np.asarray(values, dtype=np.int64)
    index = PositionIndex(array)
    assert list(index.occurrences_after(value, position)) == _linear(
        array, value, position
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=12), min_size=0, max_size=60
    )
)
def test_property_first_and_next_occurrences_equal_a_scan(values):
    array = np.asarray(values, dtype=np.int64)
    index = PositionIndex(array)
    firsts = {value: values.index(value) for value in set(values)}
    assert sorted(index.first_occurrences().tolist()) == sorted(firsts.values())
    for position, value in enumerate(values):
        later = _linear(array, value, position)
        assert index.next_occurrence(position) == (later[0] if later else -1)


def test_binding_seeds_only_flagged_values():
    values = np.array([4, 7, 4, 9, 7, 9], dtype=np.int64)
    trapped = np.isin(values, [7, 9])
    binding = RescanBinding(values, "granule")
    assert sorted(binding.first_occurrences(trapped).tolist()) == [1, 3]
    assert binding.next_occurrence(1) == 4
    assert binding.next_occurrence(5) == -1
    assert list(binding.occurrences_after(4, 0)) == [2]
