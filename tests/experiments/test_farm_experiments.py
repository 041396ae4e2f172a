"""Farm-backed experiments are bit-for-bit identical to serial runs."""

import pytest

from repro.errors import ConfigError
from repro.farm import Farm, FarmConfig
from repro.harness.experiment import run_trials


@pytest.fixture
def farm(tmp_path):
    return Farm(FarmConfig(max_workers=2, cache_dir=tmp_path / "farm-cache"))


def test_table7_farm_equals_serial(farm):
    from repro.experiments.table7 import run_table7

    workloads = ("espresso", "xlisp")
    serial = run_table7("smoke", n_trials=3, workloads=workloads)
    farmed = run_table7("smoke", n_trials=3, workloads=workloads, farm=farm)
    for name in workloads:
        assert farmed.stats[name].values == serial.stats[name].values

    # a warm-cache rerun executes nothing and still agrees
    rerun = run_table7("smoke", n_trials=3, workloads=workloads, farm=farm)
    for name in workloads:
        assert rerun.stats[name].values == serial.stats[name].values
    assert farm.last_run.executed == 0
    assert farm.last_run.cache_hits == 3


def test_table9_farm_equals_serial(farm):
    from repro.experiments.table9 import run_table9

    sizes = (4, 16)
    serial = run_table9("smoke", n_trials=2, sizes_kb=sizes)
    farmed = run_table9("smoke", n_trials=2, sizes_kb=sizes, farm=farm)
    for size in sizes:
        assert farmed.physical[size].values == serial.physical[size].values
        assert farmed.virtual[size].values == serial.virtual[size].values
    # the whole sweep went through as one batch
    assert farm.last_run.jobs == len(sizes) * 2 * 2


def test_table8_farm_equals_serial(farm):
    from repro.experiments.table8 import run_table8

    sizes = (2, 8)
    serial = run_table8("smoke", n_trials=2, sizes_kb=sizes)
    farmed = run_table8("smoke", n_trials=2, sizes_kb=sizes, farm=farm)
    for size in sizes:
        assert farmed.sampled[size].values == serial.sampled[size].values
        assert farmed.unsampled[size].values == serial.unsampled[size].values


def test_table10_farm_equals_serial(farm):
    from repro.experiments.table10 import run_table10

    workloads = ("jpeg_play",)
    serial = run_table10("smoke", n_trials=2, workloads=workloads)
    farmed = run_table10("smoke", n_trials=2, workloads=workloads, farm=farm)
    assert farmed.stats["jpeg_play"].values == serial.stats["jpeg_play"].values


def test_run_trials_validates_arguments_through_a_farm(farm):
    with pytest.raises(ConfigError):
        run_trials("table7.measure", {}, 2.5, farm=farm)
    with pytest.raises(ConfigError):
        run_trials("table7.measure", {}, 2, base_seed=1.0, farm=farm)
    with pytest.raises(ConfigError):
        run_trials("table7.measure", {}, 0, farm=farm)


def test_sampled_trials_farm_equals_in_process(farm):
    from repro.caches.config import CacheConfig
    from repro.core.tapeworm import TapewormConfig
    from repro.experiments import budget_refs
    from repro.experiments.table7 import default_interval_refs
    from repro.harness.runner import RunOptions
    from repro.sampling import build_plan, profile_workload, run_sampled_trials
    from repro.workloads.registry import get_workload

    spec = get_workload("espresso")
    options = RunOptions(total_refs=budget_refs("tiny"), trial_seed=100)
    interval = default_interval_refs(options.total_refs, options.chunk_refs)
    plan = build_plan(
        profile_workload(spec, options.total_refs, interval), seed=100
    )
    config = TapewormConfig(
        cache=CacheConfig(size_bytes=16 * 1024), sampling=8, sampling_seed=100
    )

    def sampled(farm=None):
        return run_sampled_trials(
            spec, config, options, plan,
            n_trials=2, base_seed=100, warm_seed=100, farm=farm,
        )

    farmed = sampled(farm)
    if farm.last_run.fallback_serial:  # pragma: no cover - restricted env
        pytest.skip("no process pool available")
    in_process = sampled()
    assert farmed.measurements == in_process.measurements
    assert farmed.estimates == in_process.estimates
