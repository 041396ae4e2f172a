"""Grid-sweep microbenchmark: ``python -m benchmarks.perf.gridsweep``.

The PR-10 one-pass grid engine simulates an entire ``(set-counts ×
ways)`` LRU design grid in one stack-distance pass per set count per
chunk.  This benchmark times that against the obvious alternative the
grid replaces: one per-config ``Cache2000`` simulation per cell, driven over the same chunk sequence (the shape of
a per-config farm loop, minus process overhead — the comparison is
deliberately generous to the per-config side).

* **gridsweep-vs-per-config** — the headline number: a 32-cell grid
  (4 set counts × 8 associativities) over the shared code-shaped
  stream.  Every cell's miss count is asserted bit-equal between the
  two sides, and each set count's distance histogram must partition the
  stream; the ratio is the engine's speedup.  CI gates on 5x at the
  quick budget.
* **gridsweep-dm-column** — the direct-mapped specialization: a
  ways=(1,) grid against per-config DM kernels, pinning the pure-numpy
  column the multi-size ablation rides on.  No speedup is claimed here
  — with one way per cell the grid has no pass economy (passes ==
  configs) and pays the shared cold-mask overhead, so per-config is
  about as fast; the record documents that boundary (see
  docs/INTERNALS.md, "when per-config is cheaper").

Each timed side takes the best of three repetitions with fresh state.
Results are emitted as
``BENCH_PR10.json`` — the same schema-versioned envelope as
``BENCH_PR3.json`` — and ``--check-speedup`` gates ``results.speedup``
against a fixed bound.  Run with::

    PYTHONPATH=src python -m benchmarks.perf.gridsweep --budget quick \\
        --check-speedup 5
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from benchmarks.perf import (
    BENCH_REFS,
    _code_stream,
    _record,
    speedup_of,
    write_bench,
)
from repro.caches.config import GridConfig
from repro.caches.gridsweep import GridSweepSimulator
from repro.tracing.cache2000 import Cache2000

#: where the envelope lands (next to BENCH_PR3.json)
DEFAULT_BENCH_PATH = (
    Path(__file__).parent.parent / "results" / "BENCH_PR10.json"
)

#: the headline grid: 4 set counts × 8 associativities = 32 cells
GRID = GridConfig(
    set_counts=(64, 128, 256, 512),
    ways=(1, 2, 4, 8, 16, 32, 64, 128),
)

#: the direct-mapped column (multi-size ablation shape)
DM_GRID = GridConfig(set_counts=(64, 128, 256, 512, 1024), ways=(1,))

_CHUNK_REFS = 65_536
_REPEATS = 3
_SEED = 1994


def _chunked(stream: np.ndarray) -> list[np.ndarray]:
    return [
        stream[start : start + _CHUNK_REFS]
        for start in range(0, len(stream), _CHUNK_REFS)
    ]


def _best_of(make_drive: Callable[[], Callable[[], object]]):
    best = float("inf")
    value = None
    for _ in range(_REPEATS):
        drive = make_drive()
        start = time.perf_counter()
        value = drive()
        best = min(best, time.perf_counter() - start)
    return value, best


def _bench_grid(name: str, grid: GridConfig, budget: str) -> dict:
    stream = _code_stream(BENCH_REFS[budget], np.random.default_rng(_SEED))
    chunks = _chunked(stream)

    def _grid_drive():
        sweep = GridSweepSimulator(grid)

        def drive():
            for chunk in chunks:
                sweep.simulate_chunk(chunk)
            return sweep

        return drive

    def _per_config_drive():
        sims = {cell: Cache2000(grid.config_for(*cell)) for cell in grid.cells()}

        def drive():
            for chunk in chunks:
                for sim in sims.values():
                    sim.simulate_chunk(chunk)
            return {
                cell: sim.stats.total_misses for cell, sim in sims.items()
            }

        return drive

    sweep, grid_secs = _best_of(_grid_drive)
    reference, per_config_secs = _best_of(_per_config_drive)

    # the correctness contract: every cell bit-equal, every histogram a
    # partition of the stream
    misses = sweep.miss_counts()
    for cell in grid.cells():
        assert misses[cell] == reference[cell], (
            f"{name}: cell {cell} diverged "
            f"({misses[cell]} != {reference[cell]})"
        )
    for n_sets, hist in sweep.distance_histograms().items():
        assert hist.total == sweep.refs, (
            f"{name}: histogram for {n_sets} sets does not partition "
            f"the stream ({hist.total} != {sweep.refs})"
        )

    return _record(
        name=name,
        configuration=f"{grid.describe()}, {_CHUNK_REFS}-ref chunks",
        config=grid,
        wall=grid_secs + per_config_secs,
        metrics={
            "grid_refs_per_sec": round(len(stream) / max(grid_secs, 1e-9)),
            "per_config_refs_per_sec": round(
                len(stream) / max(per_config_secs, 1e-9)
            ),
        },
        results={
            "refs": len(stream),
            "configs": grid.n_cells,
            "passes": sweep.passes,
            "grid_secs": round(grid_secs, 6),
            "per_config_secs": round(per_config_secs, 6),
            "speedup": round(per_config_secs / max(grid_secs, 1e-9), 2),
        },
    )


def run_all(budget: str = "tiny") -> dict:
    if budget not in BENCH_REFS:
        raise ValueError(
            f"unknown budget {budget!r}; choose from {sorted(BENCH_REFS)}"
        )
    return {
        "schema": 1,
        "suite": "BENCH_PR10",
        "budget": budget,
        "records": [
            _bench_grid("gridsweep-vs-per-config", GRID, budget),
            _bench_grid("gridsweep-dm-column", DM_GRID, budget),
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.gridsweep",
        description="one-pass grid sweep microbenchmarks -> BENCH_PR10.json",
    )
    parser.add_argument(
        "--budget", choices=tuple(sorted(BENCH_REFS)), default="tiny"
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_BENCH_PATH), help="output JSON path"
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit nonzero unless the 32-cell grid benchmark is at "
        "least X times faster than the per-config loop",
    )
    args = parser.parse_args(argv)

    payload = run_all(args.budget)
    path = write_bench(payload, args.out, suite="BENCH_PR10")

    print(f"budget={args.budget} -> {path}")
    for record in payload["records"]:
        results = record["results"]
        print(
            f"  {record['name']:<26} configs={results['configs']:>2} "
            f"grid={results['grid_secs']:8.3f}s "
            f"per-config={results['per_config_secs']:8.3f}s "
            f"speedup={results['speedup']:g}x"
        )

    if args.check_speedup is not None:
        achieved = speedup_of(payload, "gridsweep-vs-per-config")
        if achieved < args.check_speedup:
            print(
                f"FAIL: grid speedup {achieved:g}x < "
                f"required {args.check_speedup:g}x",
                file=sys.stderr,
            )
            return 1
        print(f"grid speedup {achieved:g}x >= {args.check_speedup:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
