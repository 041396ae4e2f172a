"""The scheduler: caching semantics, parallel determinism, crash retry."""

import pytest

import tests.farm.measures_for_tests  # noqa: F401  (registers test.* measures)
from repro.errors import ConfigError, FarmError
from repro.farm import Farm, FarmConfig, Job


def _jobs(measure, n, params=None, base_seed=0):
    return [Job(measure, params or {}, seed=base_seed + i) for i in range(n)]


def test_serial_execution_returns_values_in_job_order(tmp_path):
    farm = Farm(FarmConfig(cache_dir=tmp_path))
    values = farm.run_jobs(_jobs("test.double", 5, base_seed=10))
    assert values == [20.0, 22.0, 24.0, 26.0, 28.0]
    assert farm.last_run.executed == 5
    assert farm.last_run.cache_hits == 0


def test_cache_hit_skips_execution(tmp_path):
    counter = tmp_path / "executions"
    params = {"counter_file": str(counter)}
    farm = Farm(FarmConfig(cache_dir=tmp_path / "cache"))

    first = farm.run_jobs(_jobs("test.counted", 3, params))
    assert counter.read_text().splitlines() == ["0", "1", "2"]

    second = farm.run_jobs(_jobs("test.counted", 3, params))
    assert second == first
    # no new executions: the stored results were returned as-is
    assert counter.read_text().splitlines() == ["0", "1", "2"]
    assert farm.last_run.executed == 0
    assert farm.last_run.cache_hits == 3


def test_warm_cache_survives_farm_restart(tmp_path):
    counter = tmp_path / "executions"
    params = {"counter_file": str(counter)}
    Farm(FarmConfig(cache_dir=tmp_path / "cache")).run_jobs(
        _jobs("test.counted", 2, params)
    )
    fresh = Farm(FarmConfig(cache_dir=tmp_path / "cache"))
    fresh.run_jobs(_jobs("test.counted", 2, params))
    assert fresh.last_run.executed == 0
    assert len(counter.read_text().splitlines()) == 2


def test_no_cache_bypass_reexecutes(tmp_path):
    counter = tmp_path / "executions"
    params = {"counter_file": str(counter)}
    farm = Farm(FarmConfig(cache_dir=tmp_path / "cache", use_cache=False))
    farm.run_jobs(_jobs("test.counted", 2, params))
    farm.run_jobs(_jobs("test.counted", 2, params))
    assert len(counter.read_text().splitlines()) == 4
    assert farm.last_run.cache_hits == 0


def test_parallel_output_equals_serial_output(tmp_path):
    serial = Farm(FarmConfig(cache_dir=tmp_path / "a", use_cache=False))
    parallel = Farm(
        FarmConfig(max_workers=3, cache_dir=tmp_path / "b", use_cache=False)
    )
    jobs = _jobs("test.double", 9, base_seed=100)
    assert parallel.run_jobs(jobs) == serial.run_jobs(jobs)


def test_worker_crash_retries_then_succeeds(tmp_path):
    params = {"sentinel": str(tmp_path / "sentinel")}
    farm = Farm(
        FarmConfig(max_workers=2, cache_dir=tmp_path / "cache", max_retries=2)
    )
    values = farm.run_jobs(_jobs("test.crash_once", 2, params, base_seed=5))
    assert values == [10.0, 12.0]
    assert farm.last_run.retries >= 1


def test_persistent_crash_raises_clean_error(tmp_path):
    farm = Farm(
        FarmConfig(max_workers=2, cache_dir=tmp_path / "cache", max_retries=1)
    )
    with pytest.raises(FarmError, match="test.crash_always"):
        farm.run_jobs(_jobs("test.crash_always", 2))
    # the failed batch is still accounted: both rounds failed, none ran
    assert farm.last_run.retries == 2
    assert farm.last_run.executed == 0


def test_job_timeout_raises_after_retries(tmp_path):
    farm = Farm(
        FarmConfig(
            max_workers=2,
            cache_dir=tmp_path / "cache",
            job_timeout=0.2,
            max_retries=0,
        )
    )
    with pytest.raises(FarmError, match="test.slow"):
        farm.run_jobs(_jobs("test.slow", 1, {"delay": 2.0}))


def test_unknown_measure_raises(tmp_path):
    farm = Farm(FarmConfig(cache_dir=tmp_path))
    with pytest.raises(FarmError, match="unknown measure"):
        farm.run_jobs([Job("no.such.measure", {})])


def test_metrics_accumulate_across_runs(tmp_path):
    farm = Farm(FarmConfig(cache_dir=tmp_path))
    farm.run_jobs(_jobs("test.double", 2))
    farm.run_jobs(_jobs("test.double", 2))
    assert farm.metrics.jobs == 4
    assert farm.metrics.executed == 2
    assert farm.metrics.cache_hits == 2
    summary = farm.metrics.summary()
    assert summary["hit_ratio"] == 0.5
    assert "cache hits" in farm.metrics.render()


def test_config_validation():
    with pytest.raises(ConfigError):
        FarmConfig(max_workers=0)
    with pytest.raises(ConfigError):
        FarmConfig(max_retries=-1)
    with pytest.raises(ConfigError):
        FarmConfig(job_timeout=0.0)
