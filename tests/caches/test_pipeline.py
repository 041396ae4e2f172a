"""Per-configuration kernels: path selection, validation, the memo.

The factories' contract has three parts.  *Selection*: every
configuration runs exactly one kernel path, with machine-readable
reasons when the general path wins.  *Validation*: a configuration no
kernel serves exactly raises ``ConfigError`` when the kernel is built.
*Memoization*: the registry builds a configuration once per process and
serves every later construction from a dict probe, with counters and
delta-published metrics that stay per-run — and nothing on disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.pipeline import (
    CapabilityReport,
    cache_kernel,
    default_registry,
    dm_sweep_kernel,
    grid_kernel,
    reset_default_registry,
    tlb_kernel,
)
from repro.caches.replacement import make_policy
from repro.errors import ConfigError
from repro.telemetry.profile import PROFILE_BUCKET_SECS
from repro.telemetry.registry import MetricsRegistry

CFG = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2)
DM = CacheConfig(size_bytes=1024, line_bytes=16)
GRID = GridConfig((16, 32), (1, 2))


@pytest.fixture
def registry():
    """A fresh default registry, dropped again afterwards."""
    reset_default_registry()
    yield default_registry()
    reset_default_registry()


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

class TestCapabilities:
    def test_direct_mapped_selects_dm(self):
        report = cache_kernel(DM).capabilities
        assert report.selected == "dm" and not report.general

    @pytest.mark.parametrize("policy", ("lru", "fifo"))
    def test_groupable_policies_select_grouped(self, policy):
        report = cache_kernel(CFG, make_policy(policy)).capabilities
        assert report.selected == "grouped"

    def test_random_policy_selects_general_with_reason(self):
        report = cache_kernel(CFG, make_policy("random")).capabilities
        assert report.selected == "general"
        assert report.reasons == ("policy:random",)

    def test_forced_general_records_both_reasons(self):
        report = cache_kernel(
            CFG, make_policy("random"), force_general=True
        ).capabilities
        assert report.general
        assert "forced:request" in report.reasons
        assert "policy:random" in report.reasons

    def test_tlb_routes_mirror_cache_routes(self):
        config = TLBConfig(n_entries=16)
        assert tlb_kernel(config).capabilities.selected == "tlb_grouped"
        report = tlb_kernel(config, make_policy("random")).capabilities
        assert report == CapabilityReport("tlb_general", ("policy:random",))

    def test_sweep_and_grid_have_single_paths(self):
        expected = CapabilityReport("grid", ("lru-stack-inclusion",))
        assert dm_sweep_kernel((DM,)).capabilities == expected
        assert grid_kernel(GRID).capabilities == expected


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_dm_sweep_rejects_associative_members(self):
        with pytest.raises(ConfigError):
            dm_sweep_kernel((CFG,))
        with pytest.raises(ConfigError):
            dm_sweep_kernel(())
        with pytest.raises(ConfigError):
            dm_sweep_kernel(
                (DM, CacheConfig(size_bytes=2048, line_bytes=32))
            )

    def test_grid_rejects_non_lru_policies(self):
        for name in ("fifo", "random"):
            with pytest.raises(ConfigError):
                grid_kernel(GRID, make_policy(name))
            with pytest.raises(ConfigError):
                grid_kernel(GRID, name)
        assert grid_kernel(GRID, "lru") is grid_kernel(GRID)
        assert grid_kernel(GRID).extract is not None

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ConfigError):
            cache_kernel(CFG, "clairvoyant")
        with pytest.raises(ConfigError):
            tlb_kernel(TLBConfig(n_entries=8), "clairvoyant")
        with pytest.raises(ConfigError):
            cache_kernel(CFG, object())  # no policy name at all


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_compile_once_then_dict_probe(self, registry):
        first = cache_kernel(CFG)
        second = cache_kernel(
            CacheConfig(size_bytes=1024, line_bytes=16, associativity=2)
        )
        assert first is second
        assert registry.compiles == 1
        assert registry.hits == 1 and registry.misses == 1
        assert len(registry) == 1

    def test_distinct_requests_compile_distinct_programs(self, registry):
        cache_kernel(CFG)
        cache_kernel(DM)
        tlb_kernel(TLBConfig(n_entries=8))
        grid_kernel(GRID)
        assert registry.compiles == 4 and len(registry) == 4

    def test_every_knob_builds_its_own_program(self, registry):
        variants = [
            cache_kernel(CFG),
            cache_kernel(
                CacheConfig(size_bytes=2048, line_bytes=16, associativity=2)
            ),
            cache_kernel(
                CacheConfig(
                    size_bytes=1024,
                    line_bytes=16,
                    associativity=2,
                    indexing=Indexing.VIRTUAL,
                )
            ),
            cache_kernel(CFG, "fifo"),
            cache_kernel(CFG, force_general=True),
            cache_kernel(CFG, profile=True),
        ]
        assert len({id(program) for program in variants}) == len(variants)
        assert registry.compiles == len(variants)

    def test_counters_view(self, registry):
        cache_kernel(CFG)
        cache_kernel(CFG)
        assert registry.compiles == 1
        assert registry.hits == 1
        assert registry.misses == 1
        assert registry.compile_secs >= 0.0

    def test_publish_metrics_is_delta_based(self, registry):
        cache_kernel(CFG)
        cache_kernel(CFG)

        first = MetricsRegistry()
        registry.publish_metrics(first)
        snapshot = first.snapshot()
        assert snapshot["kernels.pipeline.compiles"] == 1
        assert snapshot["kernels.pipeline.lookups{hit=true}"] == 1
        assert snapshot["kernels.pipeline.lookups{hit=false}"] == 1

        # nothing new happened: a second session sees nothing
        second = MetricsRegistry()
        registry.publish_metrics(second)
        assert len(second) == 0

        # one more hit: only the delta shows up
        cache_kernel(CFG)
        third = MetricsRegistry()
        registry.publish_metrics(third)
        assert third.snapshot() == {"kernels.pipeline.lookups{hit=true}": 1}

    def test_publish_metrics_includes_compose_histogram(self, registry):
        cache_kernel(CFG)
        metrics = MetricsRegistry()
        registry.publish_metrics(metrics)
        assert "kernels.pipeline.compose_secs" in metrics
        assert metrics.histogram(
            "kernels.pipeline.compose_secs", bounds=PROFILE_BUCKET_SECS
        ).count == 1

    def test_clear_drops_programs_but_keeps_history(self, registry):
        cache_kernel(CFG)
        assert registry.clear() == 1
        assert len(registry) == 0
        assert registry.compiles == 1  # lifetime counter survives

    def test_building_kernels_writes_nothing(
        self, registry, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        addrs = np.arange(64, dtype=np.int64) * 16
        for config, policy_name, program in (
            (DM, "lru", cache_kernel(DM)),
            (CFG, "lru", cache_kernel(CFG, profile=True)),
            (CFG, "random", cache_kernel(CFG, "random")),
        ):
            cache = SetAssociativeCache(config, make_policy(policy_name))
            program.run(cache, addrs, 0)
        grid = grid_kernel(GRID)
        grid.run(grid.make_state(), addrs, 0)
        tlb_kernel(TLBConfig(n_entries=8))
        assert list(tmp_path.iterdir()) == []
        # nor does a CLI command that builds kernels leave a store behind
        built = registry.compiles
        assert main(
            [
                "sweep", "grid", "--workload", "espresso", "--refs", "5000",
                "--sets", "32,64", "--ways", "1,2",
            ]
        ) == 0
        assert registry.compiles > built
        assert not (tmp_path / ".kernel-cache").exists()


# ---------------------------------------------------------------------------
# kernels run standalone
# ---------------------------------------------------------------------------

class TestPrograms:
    def test_cache_program_runs_standalone(self):
        program = cache_kernel(DM)
        cache = SetAssociativeCache(DM, make_policy("lru"))
        addrs = np.asarray([0x00, 0x40, 0x00, 0x40], dtype=np.int64)
        assert program.run(cache, addrs, 0) == 2
        assert cache.occupancy() == 2
        assert (cache.searches, cache.insertions) == (4, 2)
