"""The one-pass all-associativity grid engine."""

import numpy as np
import pytest

from repro._types import Indexing
from repro.caches.config import GridConfig
from repro.caches.gridsweep import (
    DistanceHistogram,
    GridSweepReport,
    GridSweepSimulator,
    grid_job,
    grid_measure,
    grid_rows,
    run_grid_sweep,
)
from repro.caches.pipeline import grid_kernel, grid_supported
from repro.caches.replacement import make_policy
from repro.errors import ConfigError
from repro.tracing.cache2000 import Cache2000
from repro.workloads import get_workload


def _stream(seed: int, n: int, span_bits: int = 15) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << span_bits, n) & ~3).astype(np.int64)


class TestGridConfig:
    def test_axes_normalize_sorted(self):
        grid = GridConfig((256, 64, 128), (4, 1, 2))
        assert grid.set_counts == (64, 128, 256)
        assert grid.ways == (1, 2, 4)
        assert grid.max_ways == 4
        assert grid.n_cells == 9
        assert grid == GridConfig((64, 128, 256), (1, 2, 4))

    def test_cells_and_config_for(self):
        grid = GridConfig((64,), (1, 2), line_bytes=32)
        assert grid.cells() == ((64, 1), (64, 2))
        config = grid.config_for(64, 2)
        assert config.n_sets == 64
        assert config.associativity == 2
        assert config.size_bytes == 64 * 2 * 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"set_counts": (), "ways": (1,)},
            {"set_counts": (64,), "ways": ()},
            {"set_counts": (64, 64), "ways": (1,)},
            {"set_counts": (48,), "ways": (1,)},
            {"set_counts": (64,), "ways": (3,)},
            {"set_counts": (64,), "ways": (1,), "line_bytes": 24},
        ],
    )
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GridConfig(**kwargs)


class TestDistanceHistogram:
    def test_partition_and_tail_sums(self):
        hist = DistanceHistogram(counts=(10, 5, 3, 1), overflow=4, cold=7)
        assert hist.total == 30
        assert hist.hits_at(1) == 10
        assert hist.hits_at(4) == 19
        assert hist.misses_at(1) == 20
        assert hist.misses_at(4) == 11
        assert DistanceHistogram.from_dict(hist.to_dict()) == hist


class TestGridSweepSimulator:
    def test_non_lru_policies_rejected(self):
        grid = GridConfig((16, 32), (1, 2))
        for name in ("fifo", "random"):
            assert not grid_supported(make_policy(name, seed=1))
            with pytest.raises(ConfigError):
                GridSweepSimulator(grid, policy=make_policy(name, seed=1))
        assert grid_supported(None)
        assert grid_supported(make_policy("lru"))
        assert grid_supported("lru")

    def test_bit_equal_to_per_config_cache2000(self):
        grid = GridConfig((16, 32, 64), (1, 2, 4, 8))
        sweep = GridSweepSimulator(grid)
        chunks = [_stream(1, 9000), _stream(2, 5000)]
        for chunk in chunks:
            sweep.simulate_chunk(chunk)
        misses = sweep.miss_counts()
        for n_sets, ways in grid.cells():
            reference = Cache2000(grid.config_for(n_sets, ways))
            for chunk in chunks:
                reference.simulate_chunk(chunk)
            assert misses[(n_sets, ways)] == reference.stats.total_misses

    def test_histograms_partition_the_stream(self):
        grid = GridConfig((16, 64), (2, 4))
        sweep = GridSweepSimulator(grid)
        sweep.simulate_chunk(_stream(3, 8000))
        for n_sets, hist in sweep.distance_histograms().items():
            assert hist.total == sweep.refs
            for ways in grid.ways:
                assert hist.misses_at(ways) == sweep.miss_counts()[
                    (n_sets, ways)
                ]

    def test_pass_economy(self):
        # the headline claim: cells() configs cost one distance pass
        # per set count, not one simulation per cell
        grid = GridConfig((16, 32, 64, 128), (1, 2, 4, 8))
        sweep = GridSweepSimulator(grid)
        sweep.simulate_chunk(_stream(4, 4000))
        sweep.simulate_chunk(_stream(5, 4000))
        assert grid.n_cells == 16
        assert sweep.passes == 2 * len(grid.set_counts)
        assert sweep.distance_secs > 0.0

    def test_programs_are_registry_shared(self):
        grid = GridConfig((16, 32), (1, 2))
        assert grid_kernel(grid, profile=False) is (
            grid_kernel(grid, profile=False)
        )

    def test_publish_metrics(self):
        from repro.telemetry.registry import MetricsRegistry

        grid = GridConfig((16, 32), (1, 2))
        sweep = GridSweepSimulator(grid)
        sweep.simulate_chunk(_stream(6, 2000))
        metrics = MetricsRegistry()
        sweep.publish_metrics(metrics)
        snapshot = metrics.snapshot()
        assert snapshot["sweep.grid.passes"] == 2
        assert snapshot["sweep.grid.configs"] == 4
        assert "sweep.grid.distance_secs" in snapshot


class TestDriverAndFarm:
    def test_report_roundtrip_and_rows(self):
        grid = GridConfig((32, 64), (1, 2), indexing=Indexing.VIRTUAL)
        report = run_grid_sweep(get_workload("espresso"), 20_000, grid)
        assert report.refs == 20_000
        payload = report.to_payload()
        restored = GridSweepReport.from_payload(payload)
        # the payload rounds wall-clock seconds; everything else is exact
        import dataclasses

        assert restored == dataclasses.replace(
            report, distance_secs=restored.distance_secs
        )
        rows = grid_rows(payload)
        assert len(rows) == grid.n_cells
        for row in rows:
            assert row["misses"] == report.miss_counts[
                (row["n_sets"], row["ways"])
            ]
            assert row["size_bytes"] == (
                row["n_sets"] * row["ways"] * grid.line_bytes
            )
            assert row["indexing"] == "virtual"

    def test_measure_matches_direct_driver(self):
        grid = GridConfig((32, 64), (1, 2))
        payload = grid_measure(
            seed=0,
            workload="espresso",
            total_refs=20_000,
            set_counts=[32, 64],
            ways=[1, 2],
        )
        direct = run_grid_sweep(get_workload("espresso"), 20_000, grid)
        expected = direct.to_payload()
        # wall-clock timing differs between runs; the results must not
        payload.pop("distance_secs")
        expected.pop("distance_secs")
        assert payload == expected

    def test_one_cached_job_per_grid(self, tmp_path):
        from repro.farm import Farm, FarmConfig

        farm = Farm(
            FarmConfig(max_workers=1, cache_dir=tmp_path / "farm-cache")
        )
        grid = GridConfig((32, 64), (1, 2))
        job = grid_job("espresso", 15_000, grid, seed=0)
        first = farm.run_jobs([job])
        assert farm.metrics.cache_hits == 0
        second = farm.run_jobs([job])
        assert farm.metrics.cache_hits == 1
        assert first == second

    def test_report_overhead_accounting(self):
        grid = GridConfig((32,), (1, 2))
        report = run_grid_sweep(get_workload("espresso"), 10_000, grid)
        assert report.generation_cycles > 0
        assert report.processing_cycles > 0
        assert report.overhead_cycles == (
            report.generation_cycles + report.processing_cycles
        )
        assert report.miss_ratio(32, 2) == (
            report.miss_counts[(32, 2)] / report.refs
        )
