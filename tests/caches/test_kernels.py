"""Unit tests for the grouped-set simulation kernels."""

import numpy as np
import pytest

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.kernels import (
    MAX_SPACES,
    collapse_consecutive,
    dm_grouped_pass,
    grouped_stack_pass,
    line_address,
    pack,
    unpack,
)
from repro.caches.pipeline import cache_kernel
from repro.caches.replacement import make_policy
from repro.caches.tlb import SimulatedTLB
from repro.errors import ConfigError


def _addrs(*values):
    return np.array(values, dtype=np.int64)


class _Cache:
    """One ``cache_kernel`` program replaying into one cache."""

    def __init__(self, config, policy_name="lru"):
        self.program = cache_kernel(config, policy_name)
        self.cache = SetAssociativeCache(config, make_policy(policy_name))

    def simulate_chunk(self, addresses, tid=0):
        return self.program.run(self.cache, addresses, tid)


# ---------------------------------------------------------------------------
# the packed key
# ---------------------------------------------------------------------------

def test_pack_unpack_round_trip():
    line = 1 << 40
    for key_line, space in ((0, 0), (0, MAX_SPACES - 1), (line, 0), (line, 7)):
        key = pack(key_line, space)
        assert unpack(key) == (key_line, space)
    assert pack(0, 0) == 0  # a real key: test against None, not truth
    lines = np.array([0, 5, line], dtype=np.int64)
    keys = pack(lines, MAX_SPACES - 1)
    assert [tuple(pair) for pair in zip(*unpack(keys))] == [
        (0, MAX_SPACES - 1), (5, MAX_SPACES - 1), (line, MAX_SPACES - 1),
    ]
    assert unpack(-1) == (-1, MAX_SPACES - 1)  # the empty key


def test_line_address_of_a_physical_key():
    lines = np.array([-1, 0, 5, 1 << 40], dtype=np.int64)
    keys = np.where(lines < 0, -1, pack(lines, 0))
    for shift in (4, 5, 6, 12):
        assert list(line_address(keys, shift)) == [
            -1, 0, 5 << shift, (1 << 40) << shift
        ]
        assert line_address(int(keys[2]), shift) == 5 << shift


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
    """Virtual and TLB keys pack the tid, so it must fit in MAX_SPACES
    on every path that packs one: a larger tid would alias another
    task's entries."""
    for associativity in (1, 2):
        kernel = _Cache(
            CacheConfig(
                size_bytes=64,
                line_bytes=16,
                associativity=associativity,
                indexing=Indexing.VIRTUAL,
            )
        )
        with pytest.raises(ConfigError):
            kernel.simulate_chunk(_addrs(0x0), tid=MAX_SPACES)
        for tid in (-1, MAX_SPACES):
            with pytest.raises(ConfigError):
                kernel.cache.access(tid, 0x100)
            with pytest.raises(ConfigError):
                kernel.cache.miss_insert(tid, 0x100)
        assert kernel.cache.occupancy() == 0
    tlb = SimulatedTLB(TLBConfig(n_entries=4))
    for tid in (-1, MAX_SPACES):
        with pytest.raises(ConfigError):
            tlb.miss_insert(tid, 10)
        with pytest.raises(ConfigError):
            tlb.access_chunk(tid, _addrs(10))
    assert tlb.occupancy() == 0
    tlb.miss_insert(MAX_SPACES - 1, 10)
    assert tlb.resident_keys() == {pack(10, MAX_SPACES - 1)}


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
    assert kernel.cache.occupancy() == 1


def test_kernel_resident_keys_decode_spaces():
    config = CacheConfig(
        size_bytes=64, line_bytes=16, associativity=2,
        indexing=Indexing.VIRTUAL,
    )
    kernel = _Cache(config)
    kernel.simulate_chunk(_addrs(0x100), tid=3)
    assert kernel.cache.resident_keys() == {pack(0x100 >> 4, 3)}
    assert kernel.cache.occupancy() == 1


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
    assert kernel.cache.sets == reference.sets
