"""Bit-equality of the grouped-set kernel against the per-reference path.

The contract the trace-driven fast path rests on: for every covered
configuration — associativities {1,2,4,8}, policies {lru, fifo,
seeded random}, virtual/physical indexing, multi-tid streams — the
:class:`Cache2000` fast path produces *identical* per-chunk miss
counts to the per-reference :class:`SetAssociativeCache` loop, and
leaves an identical cache behind: every set's keys in policy order,
``searches`` and ``insertions``.  Seeded-random configs are covered
too: the dispatcher must route them to the general path (grouping would
permute their RNG stream), so equality is by construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.pipeline import cache_kernel
from repro.caches.replacement import make_policy
from repro.caches.tlb import SimulatedTLB
from repro.tracing.cache2000 import Cache2000

ASSOCIATIVITIES = (1, 2, 4, 8)
POLICIES = ("lru", "fifo", "random")
INDEXINGS = (Indexing.PHYSICAL, Indexing.VIRTUAL)


def _assert_same_cache(
    cache: SetAssociativeCache, reference: SetAssociativeCache
) -> None:
    """Whole-cache equality: state, searches and insertions."""
    assert cache.direct_mapped == reference.direct_mapped
    if cache.direct_mapped:
        assert cache.sets.tolist() == reference.sets.tolist()
    else:
        assert cache.sets == reference.sets
    assert cache.searches == reference.searches
    assert cache.insertions == reference.insertions


def _config(associativity: int, indexing: Indexing) -> CacheConfig:
    return CacheConfig(
        size_bytes=512,  # small: constant pressure, frequent evictions
        line_bytes=16,
        associativity=associativity,
        indexing=indexing,
    )


# ---------------------------------------------------------------------------
# exhaustive grid on a fixed pseudo-random multi-tid stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("indexing", INDEXINGS)
def test_cache2000_paths_bit_identical(associativity, policy_name, indexing):
    rng = np.random.default_rng(
        hash((associativity, policy_name, indexing.value)) & 0xFFFF
    )
    config = _config(associativity, indexing)
    fast = Cache2000(config, policy=make_policy(policy_name, seed=3))
    slow = Cache2000(
        config, policy=make_policy(policy_name, seed=3),
        force_general_path=True,
    )
    for _ in range(12):
        tid = int(rng.integers(0, 3))
        n = int(rng.integers(1, 600))
        base = int(rng.integers(0, 40)) * 64
        addrs = (base + rng.integers(0, 256, size=n) * 4).astype(np.int64)
        assert fast.simulate_chunk(addrs, tid=tid) == slow.simulate_chunk(
            addrs, tid=tid
        )
    assert fast.stats.total_misses == slow.stats.total_misses
    assert fast.resident_lines() == slow.resident_lines()
    _assert_same_cache(fast.cache, slow.cache)


@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
@pytest.mark.parametrize("policy_name", ("lru", "fifo"))
def test_kernel_matches_reference_cache_directly(associativity, policy_name):
    """The kernel itself (not just Cache2000 dispatch) vs the reference."""
    rng = np.random.default_rng(99 + associativity)
    config = _config(associativity, Indexing.VIRTUAL)
    kernel = cache_kernel(config, policy_name)
    assert kernel.is_fast
    cache = SetAssociativeCache(config, make_policy(policy_name))
    reference = SetAssociativeCache(config, make_policy(policy_name))
    for _ in range(10):
        tid = int(rng.integers(0, 4))
        addrs = (rng.integers(0, 512, size=400) * 4).astype(np.int64)
        ref_misses = 0
        for addr in addrs.tolist():
            hit, _ = reference.access(tid, addr)
            ref_misses += not hit
        assert kernel.run(cache, addrs, tid) == ref_misses
    _assert_same_cache(cache, reference)


@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
def test_physical_fast_path_accepts_any_tid(associativity):
    """Physical indexing has one tag space, so the fast path takes any
    tid the reference path takes — including ones past MAX_SPACES."""
    config = _config(associativity, Indexing.PHYSICAL)
    addrs = (np.arange(256, dtype=np.int64) * 64) % 8192
    fast = Cache2000(config)
    slow = Cache2000(config, force_general_path=True)
    assert not fast.capabilities.general
    assert fast.simulate_chunk(addrs, tid=5000) == slow.simulate_chunk(
        addrs, tid=5000
    )
    _assert_same_cache(fast.cache, slow.cache)


def test_physical_grid_accepts_any_tid():
    from repro.caches.config import GridConfig
    from repro.caches.gridsweep import GridSweepSimulator
    from repro.tracing.multisize import MultiSizeDMSweep

    addrs = (np.arange(512, dtype=np.int64) * 48) % 8192
    grid = GridConfig((16, 32), (1, 2))
    high, low = GridSweepSimulator(grid), GridSweepSimulator(grid)
    high.simulate_chunk(addrs, tid=5000)
    low.simulate_chunk(addrs, tid=0)
    assert high.miss_counts() == low.miss_counts()
    # the DM sweep kernel is the grid's ways=(1,) column
    sweep = MultiSizeDMSweep((256, 512))
    sweep.simulate_chunk(addrs)
    dm_column = low.miss_counts()
    assert sweep.misses == [dm_column[(16, 1)], dm_column[(32, 1)]]


def test_random_policy_routes_to_general_path():
    config = _config(2, Indexing.PHYSICAL)
    policy = make_policy("random", seed=11)
    sim = Cache2000(config, policy=policy)
    assert sim.capabilities.general
    assert sim.capabilities.selected == "general"
    assert "policy:random" in sim.capabilities.reasons


def test_forced_general_is_reported_with_its_reason():
    sim = Cache2000(_config(2, Indexing.VIRTUAL), force_general_path=True)
    assert sim.capabilities.general
    assert "forced:request" in sim.capabilities.reasons


# ---------------------------------------------------------------------------
# hypothesis: adversarial streams, chunked arbitrarily
# ---------------------------------------------------------------------------

_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),       # tid
        st.lists(
            st.integers(min_value=0, max_value=255),  # word index
            min_size=1,
            max_size=80,
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    chunks=_streams,
    associativity=st.sampled_from(ASSOCIATIVITIES),
    policy_name=st.sampled_from(("lru", "fifo")),
    indexing=st.sampled_from(INDEXINGS),
)
def test_property_paths_agree_on_any_stream(
    chunks, associativity, policy_name, indexing
):
    config = _config(associativity, indexing)
    fast = Cache2000(config, policy=make_policy(policy_name))
    slow = Cache2000(
        config, policy=make_policy(policy_name), force_general_path=True
    )
    assert not fast.capabilities.general  # the point of the test
    for tid, words in chunks:
        addrs = np.asarray(words, dtype=np.int64) * 4
        assert fast.simulate_chunk(addrs, tid=tid) == slow.simulate_chunk(
            addrs, tid=tid
        )
    _assert_same_cache(fast.cache, slow.cache)


# ---------------------------------------------------------------------------
# the full sweep: every kernel path vs the reference path, with tracing
# (telemetry profiling) and fault sessions toggled — the profiling
# timers and environment probes must never change results
# ---------------------------------------------------------------------------

import contextlib

from repro.caches.pipeline import reset_default_registry
from repro.faults.plan import FaultPlan
from repro.faults.session import enabled as faults_enabled
from repro.telemetry.session import enabled as telemetry_enabled


def _environment(profiling: bool, faulting: bool):
    stack = contextlib.ExitStack()
    if profiling:
        stack.enter_context(telemetry_enabled(profile=True))
    if faulting:
        stack.enter_context(faults_enabled(FaultPlan(seed=7)))
    return stack


@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("indexing", INDEXINGS)
@pytest.mark.parametrize("profiling", (False, True))
@pytest.mark.parametrize("faulting", (False, True))
def test_pipeline_sweep_bit_identical(
    associativity, policy_name, indexing, profiling, faulting
):
    """Compiled kernel vs forced-general reference across the full grid.

    Tracing on/off (profiling shims composed into the kernel) and
    fault-plan on/off (an active fault session) are swept too: neither
    may perturb miss counts or the cache left behind.
    """
    rng = np.random.default_rng(
        hash((associativity, policy_name, indexing.value)) & 0xFFFF
    )
    config = _config(associativity, indexing)
    with _environment(profiling, faulting):
        fast = Cache2000(config, policy=make_policy(policy_name, seed=3))
        reference = Cache2000(
            config,
            policy=make_policy(policy_name, seed=3),
            force_general_path=True,
        )
        assert reference.capabilities.general
        for _ in range(8):
            tid = int(rng.integers(0, 3))
            n = int(rng.integers(1, 500))
            addrs = (rng.integers(0, 256, size=n) * 4).astype(np.int64)
            assert fast.simulate_chunk(addrs, tid=tid) == (
                reference.simulate_chunk(addrs, tid=tid)
            )
        assert fast.resident_lines() == reference.resident_lines()
        _assert_same_cache(fast.cache, reference.cache)


def test_sweep_results_survive_registry_reset():
    """Cold vs warm registry: compiling fresh programs mid-stream (as a
    forked worker would) yields the same counts as reusing cached ones."""
    config = _config(4, Indexing.VIRTUAL)
    rng = np.random.default_rng(23)
    chunks = [
        (rng.integers(0, 256, size=300) * 4).astype(np.int64)
        for _ in range(6)
    ]
    warm = Cache2000(config)
    warm_misses = [int(warm.simulate_chunk(c, tid=1)) for c in chunks]
    reset_default_registry()
    try:
        cold = Cache2000(config)
        cold_misses = [int(cold.simulate_chunk(c, tid=1)) for c in chunks]
    finally:
        reset_default_registry()
    assert cold_misses == warm_misses
    _assert_same_cache(cold.cache, warm.cache)


# ---------------------------------------------------------------------------
# the TLB chunk path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("associativity", (0, 2, 4))  # 0 = fully associative
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("page_kb", (4, 16))
def test_tlb_chunk_path_bit_identical(associativity, policy_name, page_kb):
    config = TLBConfig(
        n_entries=16, associativity=associativity, page_bytes=page_kb * 1024
    )
    rng = np.random.default_rng(17 + associativity + page_kb)
    chunked = SimulatedTLB(config, make_policy(policy_name, seed=5))
    per_ref = SimulatedTLB(config, make_policy(policy_name, seed=5))
    for _ in range(8):
        tid = int(rng.integers(0, 3))
        vpns = rng.integers(0, 200, size=300).astype(np.int64)
        ref_misses = 0
        for vpn in vpns.tolist():
            hit, _ = per_ref.access(tid, vpn)
            ref_misses += not hit
        assert chunked.access_chunk(tid, vpns) == ref_misses
    assert chunked.sets == per_ref.sets
    assert chunked.searches == per_ref.searches
    assert chunked.insertions == per_ref.insertions
    # trap-driven inserts keep working against the same state afterwards
    assert chunked.miss_insert(9, 0) == per_ref.miss_insert(9, 0)
