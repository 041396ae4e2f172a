"""Unit tests for the grouped-set simulation kernels."""

import numpy as np
import pytest

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.kernels import (
    MAX_SPACES,
    collapse_consecutive,
    dm_grouped_pass,
    grouped_stack_pass,
)
from repro.caches.pipeline import cache_kernel
from repro.caches.replacement import make_policy
from repro.errors import ConfigError


def _addrs(*values):
    return np.array(values, dtype=np.int64)


class _Cache:
    """One ``cache_kernel`` program with its state, driven like a cache."""

    def __init__(self, config, policy_name="lru"):
        self.program = cache_kernel(config, policy_name)
        self.state = self.program.make_state(make_policy(policy_name))

    def simulate_chunk(self, addresses, tid=0):
        return self.program.run(self.state, addresses, tid)

    def resident_keys(self):
        return self.program.resident_keys(self.state)

    def occupancy(self):
        return self.program.occupancy(self.state)


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

def test_kernel_rejects_ungroupable_policy():
    """Seeded random never reaches the grouped replay above one way."""
    config = CacheConfig(size_bytes=64, line_bytes=16, associativity=2)
    program = cache_kernel(config, make_policy("random", seed=1))
    assert program.capabilities.selected == "general"
    assert program.capabilities.reasons == ("policy:random",)
    assert cache_kernel(config, "fifo").capabilities.selected == "grouped"


def test_kernel_rejects_out_of_range_space():
    """Virtual keys pack the tid, so it must fit in MAX_SPACES."""
    for associativity in (1, 2):
        cache = _Cache(
            CacheConfig(
                size_bytes=64,
                line_bytes=16,
                associativity=associativity,
                indexing=Indexing.VIRTUAL,
            )
        )
        with pytest.raises(ConfigError):
            cache.simulate_chunk(_addrs(0x0), tid=MAX_SPACES)


# ---------------------------------------------------------------------------
# the direct-mapped pass
# ---------------------------------------------------------------------------

def test_dm_pass_counts_and_updates_state():
    state = np.full(4, -1, dtype=np.int64)
    sets = np.array([0, 1, 0, 0], dtype=np.int64)
    keys = np.array([10, 20, 10, 30], dtype=np.int64)
    # set 0 sees 10 (miss), 10 (hit), 30 (miss); set 1 sees 20 (miss)
    assert dm_grouped_pass(state, sets, keys) == 3
    assert state.tolist() == [30, 20, -1, -1]


def test_dm_pass_empty_chunk():
    state = np.full(2, -1, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    assert dm_grouped_pass(state, empty, empty) == 0


# ---------------------------------------------------------------------------
# the grouped stack pass
# ---------------------------------------------------------------------------

def test_stack_pass_lru_order():
    sets = [[]]
    # fill a 2-way set, touch the older entry, insert a third
    misses = grouped_stack_pass(sets, 2, True, [0, 0, 0, 0], [1, 2, 1, 3])
    assert misses == 3
    assert sets[0] == [3, 1]  # 2 was LRU after the re-touch of 1


def test_stack_pass_fifo_ignores_touches():
    sets = [[]]
    misses = grouped_stack_pass(sets, 2, False, [0, 0, 0, 0], [1, 2, 1, 3])
    assert misses == 3
    assert sets[0] == [3, 2]  # 1 evicted in insertion order despite the hit


def test_collapse_consecutive_drops_only_adjacent_repeats():
    sets = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    keys = np.array([7, 7, 8, 7, 7], dtype=np.int64)
    assert collapse_consecutive(sets, keys).tolist() == [
        True, False, True, True, False,
    ]


# ---------------------------------------------------------------------------
# the kernel end to end
# ---------------------------------------------------------------------------

def test_kernel_spatial_locality_hits_collapse():
    """4 word-refs per 16-byte line: 1 miss, 3 collapsed hits."""
    kernel = _Cache(
        CacheConfig(size_bytes=128, line_bytes=16, associativity=2)
    )
    assert kernel.simulate_chunk(_addrs(0x0, 0x4, 0x8, 0xC)) == 1
    assert kernel.occupancy() == 1


def test_kernel_resident_keys_decode_spaces():
    config = CacheConfig(
        size_bytes=64, line_bytes=16, associativity=2,
        indexing=Indexing.VIRTUAL,
    )
    kernel = _Cache(config)
    kernel.simulate_chunk(_addrs(0x100), tid=3)
    assert kernel.resident_keys() == {(3, 0x100)}
    assert kernel.occupancy() == 1


def test_kernel_matches_reference_across_chunk_boundaries():
    """State carries over between chunks exactly as the reference's."""
    config = CacheConfig(size_bytes=128, line_bytes=16, associativity=4)
    kernel = _Cache(config, "lru")
    reference = SetAssociativeCache(config, make_policy("lru"))
    rng = np.random.default_rng(5)
    for size in (1, 7, 64, 255, 3):
        addrs = (rng.integers(0, 64, size=size) * 4).astype(np.int64)
        expected = 0
        for addr in addrs.tolist():
            hit, _ = reference.access(0, addr)
            expected += not hit
        assert kernel.simulate_chunk(addrs) == expected
    assert kernel.resident_keys() == reference.resident_keys()
