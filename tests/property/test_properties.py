"""Property-based tests on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import Component
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.kernels import unpack
from repro.caches.stack import StackSimulator
from repro.core.registration import PageRegistry
from repro.core.sampling import SetSampler
from repro.harness.experiment import TrialStats
from repro.kernel.scheduler import Demand, Scheduler
from repro.machine.ecc import ECCStatus, ECCWord
from repro.tracing.cache2000 import Cache2000

# ---------------------------------------------------------------------------
# ECC codec
# ---------------------------------------------------------------------------

_words = st.integers(min_value=0, max_value=2**32 - 1)
_flips = st.integers(min_value=0, max_value=38)  # 32 data + 7 check bits


def _flip(word: ECCWord, position: int) -> None:
    if position < 32:
        word.flip_data_bit(position)
    else:
        word.flip_check_bit(position - 32)


@given(data=_words)
def test_ecc_clean_words_decode_ok(data):
    assert ECCWord(data).status() == (ECCStatus.OK, None)


@given(data=_words, flip=_flips)
def test_ecc_any_single_flip_is_correctable(data, flip):
    word = ECCWord(data)
    _flip(word, flip)
    status, _ = word.status()
    assert status is ECCStatus.SINGLE_BIT


@given(
    data=_words,
    flips=st.lists(_flips, min_size=2, max_size=2, unique=True),
)
def test_ecc_any_double_flip_is_detected_uncorrectable(data, flips):
    word = ECCWord(data)
    for flip in flips:
        _flip(word, flip)
    status, _ = word.status()
    assert status is ECCStatus.DOUBLE_BIT


# ---------------------------------------------------------------------------
# cache structures
# ---------------------------------------------------------------------------

_addr_streams = st.lists(
    st.integers(min_value=0, max_value=4095), min_size=1, max_size=300
)


@given(addrs=_addr_streams)
def test_cache_occupancy_bounded_and_keys_unique(addrs):
    config = CacheConfig(size_bytes=256, line_bytes=16, associativity=2)
    cache = SetAssociativeCache(config)
    for addr in addrs:
        cache.access(1, addr * 4)
    assert cache.occupancy() <= config.n_lines
    keys = cache.resident_keys()
    assert len(keys) == cache.occupancy()
    # every resident line reports a hit
    for key in keys:
        line, _ = unpack(key)
        assert cache.contains(1, line << config.line_shift)


@given(addrs=_addr_streams)
def test_fully_associative_lru_matches_stack_distance(addrs):
    """The Mattson inclusion property ties the stack profile to direct
    simulation at every capacity."""
    byte_addrs = np.array(addrs, dtype=np.int64) * 16
    stack = StackSimulator(line_bytes=16)
    stack.process(byte_addrs)
    for lines in (2, 8, 32):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=lines * 16, line_bytes=16, associativity=lines)
        )
        misses = sum(
            0 if cache.access(0, int(a))[0] else 1 for a in byte_addrs
        )
        assert misses / len(byte_addrs) == pytest.approx(
            stack.miss_ratio(lines)
        )


@given(addrs=_addr_streams, tid=st.integers(min_value=0, max_value=5))
def test_cache2000_paths_agree(addrs, tid):
    config = CacheConfig(size_bytes=512, line_bytes=16)
    chunk = np.array(addrs, dtype=np.int64) * 4
    fast = Cache2000(config)
    slow = Cache2000(config, force_general_path=True)
    assert fast.simulate_chunk(chunk, tid=tid) == slow.simulate_chunk(
        chunk, tid=tid
    )


# ---------------------------------------------------------------------------
# page registry
# ---------------------------------------------------------------------------


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),   # tid
            st.integers(min_value=0, max_value=3),   # frame
            st.integers(min_value=0, max_value=5),   # vpn
        ),
        max_size=60,
    )
)
def test_registry_refcount_equals_mapping_count(ops):
    registry = PageRegistry()
    live: set[tuple[int, int, int]] = set()
    for tid, frame, vpn in ops:
        key = (tid, frame, vpn)
        pa, va = frame * 4096, vpn * 4096
        if (tid, vpn) in {(t, v) for t, _, v in live}:
            mapped_frame = next(f for t, f, v in live if (t, v) == (tid, vpn))
            registry.remove(tid, mapped_frame * 4096, va)
            live.discard((tid, mapped_frame, vpn))
        else:
            registry.register(tid, pa, va)
            live.add(key)
    for frame in range(4):
        expected = sum(1 for _, f, _ in live if f == frame)
        assert registry.refcount(frame * 4096) == expected
    assert len(registry) == len(live)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@given(
    denominator=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_sampler_selects_exact_fraction(denominator, seed):
    sampler = SetSampler(256, denominator, seed=seed)
    assert len(sampler.sampled_sets()) == 256 // denominator
    mask = sampler.mask_for_sets(np.arange(256))
    assert int(mask.sum()) == 256 // denominator


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


@given(
    user_weight=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=50),
    total=st.integers(min_value=1000, max_value=50_000),
)
@settings(max_examples=30)
def test_scheduler_user_total_exact_for_any_seed(user_weight, seed, total):
    scheduler = Scheduler(
        quantum_refs=777,
        system_jitter=0.25,
        trial_rng=np.random.default_rng(seed),
    )
    demands = [
        Demand("u", Component.USER, user_weight),
        Demand("k", Component.KERNEL, 1.0 - user_weight),
    ]
    slices = list(scheduler.interleave(demands, total))
    user = sum(s.n_refs for s in slices if s.component is Component.USER)
    assert user == int(round(total * user_weight))


# ---------------------------------------------------------------------------
# trial statistics
# ---------------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_trial_stats_ordering_invariants(values):
    stats = TrialStats(values=tuple(values))
    # one-ULP tolerance: the mean of identical floats can round away
    slack = 1e-9 * max(1.0, abs(stats.mean))
    assert stats.minimum <= stats.mean + slack
    assert stats.mean <= stats.maximum + slack
    assert stats.value_range == stats.maximum - stats.minimum
    assert stats.stdev >= 0
