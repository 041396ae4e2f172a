"""Ablation: chunked vectorized trap filtering (a wall-clock measurement).

The simulated hardware filters cache hits over numpy chunks, entering
Python only for trapped references — the same structural bet the real
Tapeworm makes on hardware hit-filtering.  This ablation measures
actual Python wall-clock for the same simulation at different chunk
sizes; tiny chunks approximate reference-at-a-time simulation and the
vectorization win disappears.  Miss counts must be identical across
chunk sizes.  Two mechanisms guarantee it: this direct-mapped,
physically indexed cache takes each segment's traps in one batched
replay that checks the trap complement before it trusts it, and any
segment that fails the check, or is never offered, is delivered trap
by trap with in-order rescans (docs/INTERNALS.md, "Batched trap
delivery").  Small chunks now also pay the batch's fixed cost per
segment, not only the per-chunk scan.
"""

import time

from benchmarks.conftest import run_once
from repro._types import Component
from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.harness.tables import format_table
from repro.workloads.registry import get_workload

CHUNK_SIZES = (64, 512, 4096)
TOTAL_REFS = 120_000  # fixed: this is a wall-clock experiment


def _sweep(_budget):
    spec = get_workload("espresso")
    results = {}
    for chunk_refs in CHUNK_SIZES:
        options = RunOptions(
            total_refs=TOTAL_REFS,
            trial_seed=3,
            chunk_refs=chunk_refs,
            simulate=frozenset({Component.USER}),
        )
        config = TapewormConfig(cache=CacheConfig(size_bytes=4096))
        start = time.perf_counter()
        report = run_trap_driven(spec, config, options)
        elapsed = time.perf_counter() - start
        results[chunk_refs] = (elapsed, report.stats.total_misses)
    return results


def test_ablation_chunking(benchmark, budget, save_result):
    results = run_once(benchmark, _sweep, budget)
    rows = [
        [chunk, f"{elapsed:.3f}s", misses]
        for chunk, (elapsed, misses) in results.items()
    ]
    save_result(
        "ablation_chunking",
        format_table(
            ["Chunk refs", "Wall clock", "Misses"],
            rows,
            title=(
                "Ablation: vectorized trap filtering "
                f"(espresso user, 4 KB, {TOTAL_REFS:,} refs)"
            ),
        ),
    )
    # exactness: identical misses at every chunk size
    assert len({misses for _, misses in results.values()}) == 1
    # the vectorization win: big chunks are much faster than near-scalar
    assert results[4096][0] < results[64][0] / 2
