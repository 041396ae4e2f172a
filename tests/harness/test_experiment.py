"""Trial statistics in the paper's Table 7 presentation."""

import pytest

import tests.farm.measures_for_tests  # noqa: F401  (registers test.* measures)
from repro.errors import ConfigError
from repro.farm import register
from repro.harness.experiment import TrialStats, run_trials, stats_of

#: seeds :func:`_record` saw, in the order it saw them
_SEEN: list[int] = []


def _record(seed: int) -> float:
    _SEEN.append(seed)
    return float(seed)


register("test.experiment.record", _record)


def test_table7_statistics():
    stats = TrialStats(values=(10.0, 12.0, 14.0, 16.0))
    assert stats.mean == 13.0
    assert stats.minimum == 10.0
    assert stats.maximum == 16.0
    assert stats.value_range == 6.0
    assert stats.stdev == pytest.approx(2.582, rel=1e-3)


def test_percentages_relative_to_mean():
    stats = TrialStats(values=(50.0, 150.0))
    assert stats.mean == 100.0
    assert stats.stdev_pct == pytest.approx(70.7, rel=1e-2)
    assert stats.minimum_pct == pytest.approx(50.0)
    assert stats.maximum_pct == pytest.approx(50.0)
    assert stats.range_pct == pytest.approx(100.0)


def test_single_trial_has_zero_spread():
    stats = TrialStats(values=(42.0,))
    assert stats.stdev == 0.0
    assert stats.value_range == 0.0


def test_zero_mean_percentages_defined():
    stats = TrialStats(values=(0.0, 0.0))
    assert stats.stdev_pct == 0.0


def test_row_keys():
    row = TrialStats(values=(1.0, 2.0)).row()
    assert set(row) == {
        "mean", "s", "s_pct", "min", "min_pct", "max", "max_pct",
        "range", "range_pct",
    }


def test_run_trials_passes_distinct_seeds(tmp_path):
    counter = tmp_path / "seeds.txt"
    stats = run_trials(
        "test.counted", {"counter_file": str(counter)}, 4, base_seed=10
    )
    assert counter.read_text().split() == ["10", "11", "12", "13"]
    assert stats.n == 4


def test_run_trials_without_a_farm_runs_in_process_and_writes_nothing(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    _SEEN.clear()
    stats = run_trials("test.experiment.record", {}, 3, base_seed=7)
    # the measure ran in this process, in seed order
    assert _SEEN == [7, 8, 9]
    assert stats.values == (7.0, 8.0, 9.0)
    # no result cache, journal or stats file
    assert list(tmp_path.iterdir()) == []


def test_empty_trials_rejected():
    with pytest.raises(ConfigError):
        TrialStats(values=())
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, 0)


def test_stats_of_wraps_values():
    assert stats_of([3.0, 5.0]).mean == 4.0


def test_run_trials_rejects_non_integer_counts():
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, 4.0)
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, "4")
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, True)


def test_run_trials_rejects_non_integer_base_seed():
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, 2, base_seed=1.5)
    with pytest.raises(ConfigError):
        run_trials("test.double", {}, 2, base_seed=False)
