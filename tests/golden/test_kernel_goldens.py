"""Golden outputs of the cache kernels and the chunk engine's trap scan.

The differential tests compare two live code paths, so a change that
alters both the same way passes them.  This test compares against a
committed file instead: ``kernels.json`` holds what the kernels computed
on fixed seeded multi-tid streams when it was blessed.

* ``Cache2000`` per-chunk misses, processing cycles and a digest of the
  resident keys, for associativity {1,2,4,8} x policy {lru, fifo,
  random(seed=3)} x {physical, virtual} indexing;
* ``SimulatedTLB.access_chunk`` misses, searches and insertions, for
  associativity {0,2,4} x the same policies x page size {4K, 16K};
* ``GridSweepSimulator`` miss counts and histograms, both indexings;
* ``MultiSizeDMSweep`` misses;
* short ``run_trap_driven`` trials, which exercise the CPU's trap
  delivery: sdet on a 4 KB direct-mapped cache (the batched path), and
  on the per-trap path sdet at 2/4/8 ways x {lru, fifo, random}, on a
  virtually indexed direct-mapped cache and on a two-level L1/L2, plus
  xlisp with data references on a 64-entry TLB and on a 16-entry 2-way
  TLB with 16 KB pages and 1/2 set sampling.

After an intentional change, rewrite the file with::

    python tests/golden/test_kernel_goldens.py --bless

and name the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the program from this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np

from repro._types import Indexing
from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.gridsweep import GridSweepSimulator
from repro.caches.kernels import unpack
from repro.caches.replacement import make_policy
from repro.caches.tlb import SimulatedTLB
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.tracing.cache2000 import Cache2000
from repro.tracing.multisize import MultiSizeDMSweep
from repro.workloads import get_workload

GOLDEN = Path(__file__).with_name("kernels.json")

POLICIES = ("lru", "fifo", "random")
INDEXINGS = (Indexing.PHYSICAL, Indexing.VIRTUAL)
TIDS = (0, 1, 2, 7)


def _chunks(seed: int, n_chunks: int = 10, span: int = 1 << 14):
    """A fixed multi-tid stream: ``(tid, addresses)`` per chunk."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(n_chunks):
        tid = TIDS[int(rng.integers(0, len(TIDS)))]
        n = int(rng.integers(1, 800))
        base = int(rng.integers(0, 64)) * 256
        words = rng.integers(0, span // 4, size=n)
        addrs = ((base + words * 4) % span).astype(np.int64)
        chunks.append((tid, addrs))
    return chunks


def _digest(keys, line_shift: int = 0) -> str:
    """Digest of packed keys as ``[space, line << line_shift]`` pairs:
    ``[space, line_addr]`` for caches, ``[tid, superpage]`` for TLBs."""
    pairs = [[space, line << line_shift] for line, space in map(unpack, keys)]
    text = json.dumps(sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_goldens() -> dict:
    out = {}
    for associativity in (1, 2, 4, 8):
        for policy_name in POLICIES:
            for indexing in INDEXINGS:
                config = CacheConfig(
                    size_bytes=1024,
                    line_bytes=16,
                    associativity=associativity,
                    indexing=indexing,
                )
                sim = Cache2000(config, make_policy(policy_name, seed=3))
                misses = [
                    sim.simulate_chunk(addrs, tid=tid)
                    for tid, addrs in _chunks(11 + associativity)
                ]
                out[f"{associativity}way-{policy_name}-{indexing.value}"] = {
                    "misses": misses,
                    "processing_cycles": sim.processing_cycles,
                    "resident": _digest(
                        sim.resident_keys(), config.line_shift
                    ),
                }
    return out


def _tlb_goldens() -> dict:
    out = {}
    for associativity in (0, 2, 4):
        for policy_name in POLICIES:
            for page_kb in (4, 16):
                config = TLBConfig(
                    n_entries=16,
                    associativity=associativity,
                    page_bytes=page_kb * 1024,
                )
                tlb = SimulatedTLB(config, make_policy(policy_name, seed=3))
                rng = np.random.default_rng(17 + associativity + page_kb)
                misses = []
                for _ in range(8):
                    tid = TIDS[int(rng.integers(0, len(TIDS)))]
                    vpns = rng.integers(0, 200, size=300).astype(np.int64)
                    misses.append(tlb.access_chunk(tid, vpns))
                key = f"{associativity}way-{policy_name}-{page_kb}K"
                out[key] = {
                    "misses": misses,
                    "searches": tlb.searches,
                    "insertions": tlb.insertions,
                    "resident": _digest(tlb.resident_keys()),
                }
    return out


def _grid_goldens() -> dict:
    out = {}
    for indexing in INDEXINGS:
        grid = GridConfig((16, 32, 64), (1, 2, 4, 8), indexing=indexing)
        sweep = GridSweepSimulator(grid)
        for tid, addrs in _chunks(31):
            sweep.simulate_chunk(addrs, tid=tid)
        out[indexing.value] = {
            "misses": {
                f"{n_sets}x{ways}": misses
                for (n_sets, ways), misses in sorted(
                    sweep.miss_counts().items()
                )
            },
            "hists": {
                str(n_sets): hist.to_dict()
                for n_sets, hist in sorted(
                    sweep.distance_histograms().items()
                )
            },
        }
    return out


def _dm_sweep_goldens() -> dict:
    sweep = MultiSizeDMSweep((1024, 2048, 4096, 8192, 16384))
    for _, addrs in _chunks(41):
        sweep.simulate_chunk(addrs)
    return {str(size): misses for size, misses in sweep.miss_counts().items()}


def _trial(program: str, tw_config, options: RunOptions) -> dict:
    report = run_trap_driven(get_workload(program), tw_config, options)
    return {
        "misses": {c.value: n for c, n in report.stats.misses.items()},
        "refs": {c.value: n for c, n in report.refs.items()},
        "traps": report.traps,
        "masked_traps": report.masked_traps,
        "page_faults": report.page_faults,
        "ticks": report.ticks,
        "base_cycles": report.base_cycles,
        "overhead_cycles": report.overhead_cycles,
    }


def _trial_goldens() -> dict:
    sdet = RunOptions(total_refs=30_000, trial_seed=1)
    xlisp = RunOptions(total_refs=30_000, trial_seed=4, include_data_refs=True)
    trials = {
        "sdet-4K-dm": _trial(
            "sdet", TapewormConfig(cache=CacheConfig(size_bytes=4096)), sdet
        ),
        "xlisp-tlb64-data": _trial(
            "xlisp",
            TapewormConfig(structure="tlb", tlb=TLBConfig(n_entries=64)),
            xlisp,
        ),
        "sdet-4K-dm-virtual": _trial(
            "sdet",
            TapewormConfig(
                cache=CacheConfig(size_bytes=4096, indexing=Indexing.VIRTUAL)
            ),
            sdet,
        ),
        "sdet-L1-4K-L2-16K": _trial(
            "sdet",
            TapewormConfig(
                structure="two_level",
                cache=CacheConfig(size_bytes=4096),
                l2=CacheConfig(size_bytes=16384, associativity=2),
            ),
            sdet,
        ),
        "xlisp-tlb16-2way-16K-sampled-data": _trial(
            "xlisp",
            TapewormConfig(
                structure="tlb",
                tlb=TLBConfig(n_entries=16, associativity=2, page_bytes=16384),
                sampling=2,
            ),
            xlisp,
        ),
    }
    for ways in (2, 4, 8):
        for policy_name in POLICIES:
            trials[f"sdet-4K-{ways}way-{policy_name}"] = _trial(
                "sdet",
                TapewormConfig(
                    cache=CacheConfig(size_bytes=4096, associativity=ways),
                    replacement=policy_name,
                ),
                sdet,
            )
    return trials


def compute() -> dict:
    return {
        "cache2000": _cache_goldens(),
        "tlb": _tlb_goldens(),
        "grid": _grid_goldens(),
        "dm_sweep": _dm_sweep_goldens(),
        "trials": _trial_goldens(),
    }


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_kernels_match_goldens():
    expected = json.loads(GOLDEN.read_text())
    observed = json.loads(render(compute()))
    for section in expected:
        assert observed[section] == expected[section], section
    assert set(observed) == set(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {sys.argv[0]} --bless")
    GOLDEN.write_text(render(compute()))
    print(f"wrote {GOLDEN}")
