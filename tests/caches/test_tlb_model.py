"""The simulated TLB model."""

import pytest

from repro.caches.config import TLBConfig
from repro.caches.kernels import pack
from repro.caches.tlb import SimulatedTLB


def test_access_miss_then_hit():
    tlb = SimulatedTLB(TLBConfig(n_entries=4))
    hit, displaced = tlb.access(1, 100)
    assert not hit and displaced is None
    hit, _ = tlb.access(1, 100)
    assert hit


def test_fully_associative_lru_displacement():
    tlb = SimulatedTLB(TLBConfig(n_entries=2))
    tlb.access(1, 10)
    tlb.access(1, 20)
    tlb.access(1, 10)  # refresh
    _, displaced = tlb.access(1, 30)
    assert displaced == pack(20, 1)


def test_miss_insert_skips_search():
    tlb = SimulatedTLB(TLBConfig(n_entries=2))
    displaced = tlb.miss_insert(1, 10)
    assert displaced is None
    assert tlb.searches == 0
    tlb.miss_insert(1, 20)
    displaced = tlb.miss_insert(1, 30)
    assert displaced == pack(10, 1)


def test_superpage_collapsing():
    config = TLBConfig(n_entries=4, page_bytes=16384)  # 4 machine pages
    tlb = SimulatedTLB(config)
    tlb.miss_insert(1, 0)
    # machine pages 0..3 share one entry
    assert tlb.contains(1, 3)
    assert not tlb.contains(1, 4)
    assert tlb.resident_keys() == {pack(0, 1)}  # superpage 0 of tid 1


def test_entries_are_per_task():
    tlb = SimulatedTLB(TLBConfig(n_entries=4))
    tlb.miss_insert(1, 10)
    assert not tlb.contains(2, 10)


def test_set_associative_indexing():
    config = TLBConfig(n_entries=4, associativity=1)  # 4 direct-mapped sets
    tlb = SimulatedTLB(config)
    tlb.miss_insert(1, 0)
    displaced = tlb.miss_insert(1, 4)  # same set (4 sets)
    assert displaced == pack(0, 1)
    displaced = tlb.miss_insert(1, 1)  # different set
    assert displaced is None


def test_evict():
    tlb = SimulatedTLB(TLBConfig(n_entries=4))
    tlb.miss_insert(1, 10)
    assert tlb.evict(1, 10)
    assert not tlb.evict(1, 10)
