"""The run orchestrator under both drivers."""

import gc
import weakref

import pytest

from repro._types import Component, Indexing
from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trace_driven, run_trap_driven
from repro.errors import ConfigError
from repro.machine.machine import Machine
from repro.workloads.registry import get_workload

SMALL = RunOptions(total_refs=60_000, trial_seed=1)


def _config(**kwargs):
    kwargs.setdefault("cache", CacheConfig(size_bytes=4096))
    return TapewormConfig(**kwargs)


class TestTrapDriven:
    def test_full_run_produces_counts(self):
        report = run_trap_driven(get_workload("espresso"), _config(), SMALL)
        assert report.total_refs >= 60_000 * 0.9
        assert report.stats.total_misses > 0
        assert report.traps == report.stats.total_misses
        assert report.overhead_cycles == report.traps * 246
        assert report.slowdown > 0
        assert report.page_faults > 0

    def test_component_selection_limits_misses(self):
        options = RunOptions(
            total_refs=60_000,
            trial_seed=1,
            simulate=frozenset({Component.KERNEL}),
        )
        report = run_trap_driven(get_workload("espresso"), _config(), options)
        assert report.stats.misses[Component.KERNEL] > 0
        assert report.stats.misses[Component.USER] == 0
        assert report.stats.misses[Component.BSD_SERVER] == 0

    def test_component_fractions_near_table4(self):
        report = run_trap_driven(get_workload("mpeg_play"), _config(), SMALL)
        user_share = report.refs[Component.USER] / report.total_refs
        # time fraction 0.446 with user CPI below average -> ref share higher
        assert user_share == pytest.approx(0.50, abs=0.1)

    def test_fork_heavy_workload_completes(self):
        report = run_trap_driven(
            get_workload("kenbus"),
            _config(),
            RunOptions(total_refs=80_000, trial_seed=2),
        )
        assert report.stats.misses[Component.USER] > 0
        # all 238 user tasks were created and exited
        assert report.workload == "kenbus"

    def test_scale_factor_extrapolates(self):
        spec = get_workload("espresso")
        report = run_trap_driven(spec, _config(), SMALL)
        assert report.scale_factor == pytest.approx(
            534e6 / 60_000, rel=1e-6
        )
        assert report.misses_paper_scale() == pytest.approx(
            report.estimated_misses * report.scale_factor
        )

    def test_sampling_reduces_traps_and_slowdown(self):
        spec = get_workload("mpeg_play")
        full = run_trap_driven(spec, _config(), SMALL)
        sampled = run_trap_driven(spec, _config(sampling=8), SMALL)
        assert sampled.traps < full.traps / 4
        assert sampled.slowdown < full.slowdown / 4
        # but the estimate lands near the full count
        assert sampled.estimated_misses == pytest.approx(
            full.estimated_misses, rel=0.6
        )

    def test_finished_run_frees_its_machine_without_a_collection(
        self, monkeypatch
    ):
        # the runner shuts the kernel down after the report, so no
        # reference cycle keeps the machine's ECC bitmaps alive until
        # the cyclic garbage collector runs
        machines = []
        build = Machine.__init__

        def tracked(self, *args, **kwargs):
            build(self, *args, **kwargs)
            machines.append(weakref.ref(self))

        monkeypatch.setattr(Machine, "__init__", tracked)
        gc.disable()
        try:
            run_trap_driven(get_workload("espresso"), _config(), SMALL)
            assert machines and all(ref() is None for ref in machines)
        finally:
            gc.enable()

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigError):
            RunOptions(total_refs=0)


class TestTraceDriven:
    def test_full_run(self):
        report = run_trace_driven(
            get_workload("espresso"), CacheConfig(size_bytes=4096), 50_000
        )
        assert report.refs_traced == 50_000
        assert report.refs_simulated == 50_000
        assert report.misses > 0
        assert report.slowdown > 10  # the ~20x floor of Figure 2

    def test_sampled_trace_simulates_fewer_refs(self):
        report = run_trace_driven(
            get_workload("espresso"),
            CacheConfig(size_bytes=4096),
            50_000,
            sampling=8,
        )
        assert report.refs_simulated < 50_000 / 4
        assert report.filter_cycles > 0
        # filtering still touched every traced address
        assert report.refs_traced == 50_000

    def test_sampling_barely_reduces_trace_slowdown(self):
        """The paper's contrast: trace-driven sampling still pays trace
        generation + filtering on every address."""
        spec = get_workload("espresso")
        config = CacheConfig(size_bytes=4096)
        full = run_trace_driven(spec, config, 50_000)
        sampled = run_trace_driven(spec, config, 50_000, sampling=8)
        assert sampled.slowdown > full.slowdown / 3
