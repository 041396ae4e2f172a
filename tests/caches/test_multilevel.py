"""Split and two-level hierarchies."""

import pytest

from repro._types import Indexing
from repro.caches.config import CacheConfig
from repro.caches.kernels import pack
from repro.caches.multilevel import SplitCache, TwoLevelCache
from repro.errors import ConfigError


def test_split_cache_separates_streams():
    split = SplitCache(
        CacheConfig(size_bytes=64, line_bytes=16),
        CacheConfig(size_bytes=64, line_bytes=16),
    )
    split.access(1, 0x100, is_instruction=True)
    hit, _ = split.access(1, 0x100, is_instruction=False)
    assert not hit  # the D-side never saw it
    hit, _ = split.access(1, 0x100, is_instruction=True)
    assert hit


@pytest.fixture
def two_level():
    return TwoLevelCache(
        CacheConfig(size_bytes=64, line_bytes=16),
        CacheConfig(size_bytes=256, line_bytes=16),
    )


def test_l1_miss_l2_hit_path(two_level):
    two_level.access(1, 0x000)
    two_level.access(1, 0x040)  # evicts 0x000 from L1 (4 sets), stays in L2
    outcome = two_level.access(1, 0x000)
    assert not outcome.l1_hit
    assert outcome.l2_hit
    assert two_level.l1_misses == 3
    assert two_level.l2_misses == 2


def test_l1_hit_touches_nothing(two_level):
    two_level.access(1, 0x000)
    outcome = two_level.access(1, 0x004)
    assert outcome.l1_hit and outcome.l2_hit
    assert outcome.displaced_from_l1 == []


def test_inclusion_maintained_under_pressure(two_level):
    for addr in range(0, 0x1000, 16):
        two_level.access(1, addr)
    assert two_level.check_inclusion()


def test_l2_eviction_invalidates_l1(two_level):
    # fill L2 (16 lines, direct-mapped) so a new line evicts an L2 set
    two_level.access(1, 0x000)
    outcome = two_level.access(1, 0x100)  # same L2 set as 0x000 (16 sets)
    displaced = outcome.displaced_from_l1
    assert pack(0x000 >> 4, 0) in displaced or not two_level.l1.contains(1, 0x000)
    assert two_level.check_inclusion()


def test_miss_insert_counts_both_levels(two_level):
    outcome = two_level.miss_insert(1, 0x200)
    assert not outcome.l1_hit and not outcome.l2_hit
    assert two_level.l1_misses == 1
    assert two_level.l2_misses == 1


@pytest.mark.parametrize("l1_kwargs,l2_kwargs", [
    ({"line_bytes": 16}, {"line_bytes": 32}),
    ({"size_bytes": 256}, {"size_bytes": 64}),
    ({"indexing": Indexing.VIRTUAL}, {"indexing": Indexing.PHYSICAL}),
])
def test_mismatched_hierarchies_rejected(l1_kwargs, l2_kwargs):
    l1 = {"size_bytes": 64, "line_bytes": 16}
    l2 = {"size_bytes": 256, "line_bytes": 16}
    l1.update(l1_kwargs)
    l2.update(l2_kwargs)
    with pytest.raises(ConfigError):
        TwoLevelCache(CacheConfig(**l1), CacheConfig(**l2))
