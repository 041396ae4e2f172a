"""The set-associative cache model: both drivers' access paths."""

import pytest

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.kernels import pack
from repro.caches.replacement import FIFOPolicy


@pytest.fixture
def dm_cache():
    # 4 sets of one 16-byte line
    return SetAssociativeCache(CacheConfig(size_bytes=64, line_bytes=16))


def test_access_miss_then_hit(dm_cache):
    hit, displaced = dm_cache.access(1, 0x100)
    assert not hit and displaced is None
    hit, _ = dm_cache.access(1, 0x104)  # same line
    assert hit


def test_direct_mapped_conflict(dm_cache):
    dm_cache.access(1, 0x00)
    hit, displaced = dm_cache.access(1, 0x40)  # same set (4 sets * 16B)
    assert not hit
    assert displaced == pack(0x00 >> 4, 0)  # key 0: line 0 of space 0


def test_miss_insert_returns_displaced(dm_cache):
    assert dm_cache.miss_insert(1, 0x00) is None
    assert dm_cache.miss_insert(1, 0x40) == pack(0x00 >> 4, 0)


def test_miss_insert_performs_no_search(dm_cache):
    dm_cache.miss_insert(1, 0x00)
    assert dm_cache.searches == 0
    dm_cache.access(1, 0x00)
    assert dm_cache.searches == 1


def test_lru_within_set():
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=64, line_bytes=16, associativity=4)
    )
    for addr in (0x00, 0x10, 0x20, 0x30):
        cache.access(1, addr)
    cache.access(1, 0x00)  # refresh the oldest
    _, displaced = cache.access(1, 0x40)
    assert displaced == pack(0x10 >> 4, 0)  # next-oldest goes


def test_fifo_policy_ignores_touches():
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=64, line_bytes=16, associativity=4),
        policy=FIFOPolicy(),
    )
    for addr in (0x00, 0x10, 0x20, 0x30):
        cache.access(1, addr)
    cache.access(1, 0x00)
    _, displaced = cache.access(1, 0x40)
    assert displaced == pack(0x00 >> 4, 0)  # first in, touched or not


def test_virtual_indexing_tags_by_task():
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=64, line_bytes=16, indexing=Indexing.VIRTUAL)
    )
    cache.access(1, 0x100)
    hit, displaced = cache.access(2, 0x100)  # same VA, other task
    assert not hit
    assert displaced == pack(0x100 >> 4, 1)


def test_physical_indexing_shares_across_tasks():
    cache = SetAssociativeCache(CacheConfig(size_bytes=64, line_bytes=16))
    cache.access(1, 0x100)
    hit, _ = cache.access(2, 0x100)
    assert hit  # same physical line, shared


def test_contains_does_not_touch_lru():
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=32, line_bytes=16, associativity=2)
    )
    cache.access(1, 0x00)
    cache.access(1, 0x10)
    assert cache.contains(1, 0x00)
    _, displaced = cache.access(1, 0x20)
    assert displaced == pack(0x00 >> 4, 0)  # contains() did not refresh it


def test_evict(dm_cache):
    dm_cache.access(1, 0x00)
    assert dm_cache.evict(1, 0x00)
    assert not dm_cache.evict(1, 0x00)
    assert not dm_cache.contains(1, 0x00)


def test_flush_page():
    cache = SetAssociativeCache(CacheConfig(size_bytes=8192, line_bytes=16))
    for offset in range(0, 4096, 16):
        cache.access(1, 0x2000 + offset)
    cache.access(1, 0x1000)
    removed = cache.flush_page(1, 0x2000, 4096)
    assert len(removed) == 256
    assert cache.occupancy() == 1
    assert cache.contains(1, 0x1000)


def test_occupancy_never_exceeds_capacity():
    config = CacheConfig(size_bytes=128, line_bytes=16, associativity=2)
    cache = SetAssociativeCache(config)
    for addr in range(0, 0x4000, 16):
        cache.access(1, addr)
    assert cache.occupancy() <= config.n_lines
    assert len(cache) == config.n_lines
