"""Hardened scheduling: backoff, the circuit breaker, worker faults."""

import random

import pytest

from repro.errors import ConfigError, FarmError
from repro.farm import Farm, FarmConfig
from repro.farm.jobs import Job
from repro.faults.infra import WorkerFaults, chaos_probe
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

from . import measures_for_tests  # noqa: F401  (registers test.* measures)


def _probe_jobs(n=3):
    return [
        Job(measure="chaos.probe", params={"scale": 1.0}, seed=s)
        for s in range(n)
    ]


def _expected(n=3):
    return [chaos_probe(s) for s in range(n)]


class TestBackoff:
    def test_delays_grow_exponentially_and_cap(self):
        config = FarmConfig(backoff_base=0.1, backoff_max=0.5, backoff_jitter=0)
        rng = random.Random(0)
        delays = [config.backoff_delay(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_replayable(self):
        config = FarmConfig(backoff_base=0.1, backoff_jitter=0.5)
        first = [config.backoff_delay(a, random.Random(7)) for a in (1, 2)]
        second = [config.backoff_delay(a, random.Random(7)) for a in (1, 2)]
        assert first == second
        # jitter only ever lengthens the delay, bounded by the fraction
        assert all(0.1 * 2 ** (a - 1) <= d <= 0.1 * 2 ** (a - 1) * 1.5
                   for a, d in zip((1, 2), first))

    def test_new_knobs_are_validated(self):
        with pytest.raises(ConfigError):
            FarmConfig(backoff_base=-0.1)
        with pytest.raises(ConfigError):
            FarmConfig(backoff_base=1.0, backoff_max=0.5)
        with pytest.raises(ConfigError):
            FarmConfig(backoff_jitter=-1)
        with pytest.raises(ConfigError):
            FarmConfig(breaker_threshold=-1)


class TestRetryAccounting:
    def test_retry_events_carry_attempt_and_delay(self, tmp_path):
        params = {"sentinel": str(tmp_path / "sentinel")}
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=2, backoff_base=0.01,
        ))
        farm.run_jobs(
            [Job("test.crash_once", dict(params), seed=s) for s in (5, 6)]
        )
        assert farm.last_run.retries >= 1
        attempt, delay = farm.last_run.retry_events[0]
        assert attempt == 1
        assert delay >= 0.01


class TestWorkerFaults:
    def test_kill_on_first_attempt_is_absorbed_by_retry(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=2, backoff_base=0.01,
            worker_faults=WorkerFaults(kills=frozenset({0})),
        ))
        assert farm.run_jobs(_probe_jobs()) == _expected()
        assert farm.last_run.retries >= 1

    def test_hang_is_absorbed_via_timeout_retry(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            job_timeout=0.5, max_retries=2, backoff_base=0.01,
            worker_faults=WorkerFaults(
                hangs=frozenset({1}), hang_secs=3.0
            ),
        ))
        assert farm.run_jobs(_probe_jobs()) == _expected()
        assert farm.last_run.retries >= 1

    def test_from_plan_aggregates_worker_specs(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_KILL, count=2, start=0, every=2),
            FaultSpec(FaultKind.WORKER_HANG, start=1,
                      params={"hang_secs": 3.0, "persistent": True}),
        ))
        faults = WorkerFaults.from_plan(plan)
        assert faults.kills == frozenset({0, 2})
        assert faults.hangs == frozenset({1})
        assert faults.hang_secs == 3.0
        assert faults.persistent

    def test_from_plan_without_worker_specs_is_none(self):
        assert WorkerFaults.from_plan(FaultPlan()) is None

    def test_transient_faults_fire_only_on_first_attempt(self):
        faults = WorkerFaults(kills=frozenset({0}))
        assert faults.action_for(0, attempt=0) == "kill"
        assert faults.action_for(0, attempt=1) is None
        persistent = WorkerFaults(kills=frozenset({0}), persistent=True)
        assert persistent.action_for(0, attempt=3) == "kill"


class TestCircuitBreaker:
    def test_persistent_kills_trip_the_breaker_to_serial(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=10, backoff_base=0.01, breaker_threshold=2,
            worker_faults=WorkerFaults(
                kills=frozenset({0, 1, 2}), persistent=True
            ),
        ))
        # worker faults only exist on the pool path, so degrading to
        # the master absorbs even a persistent kill schedule
        assert farm.run_jobs(_probe_jobs()) == _expected()
        assert farm.last_run.breaker_tripped
        assert farm.last_run.fallback_serial
        assert farm.last_run.retries == 2  # threshold, then the trip

    def test_disabled_breaker_exhausts_retries_instead(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=1, backoff_base=0.01,
            worker_faults=WorkerFaults(
                kills=frozenset({0, 1, 2}), persistent=True
            ),
        ))
        with pytest.raises(FarmError, match="still failing"):
            farm.run_jobs(_probe_jobs())

    def test_exhausted_retries_still_record_the_batch(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=1, backoff_base=0.01,
            worker_faults=WorkerFaults(
                kills=frozenset({0, 1, 2}), persistent=True
            ),
        ))
        with pytest.raises(FarmError, match="still failing"):
            farm.run_jobs(_probe_jobs())
        assert farm.last_run.retries == 2  # max_retries + 1 failed rounds
        assert farm.metrics.retries == 2
        stats = farm.cache.read_stats()
        assert stats["runs"] == 1
        assert stats["retries"] == 2

    def test_breaker_summary_key_round_trips(self, tmp_path):
        farm = Farm(FarmConfig(
            max_workers=2, cache_dir=tmp_path / "cache",
            max_retries=10, backoff_base=0.01, breaker_threshold=1,
            worker_faults=WorkerFaults(
                kills=frozenset({0, 1, 2}), persistent=True
            ),
        ))
        farm.run_jobs(_probe_jobs())
        assert farm.last_run.summary()["breaker_tripped"] is True
        stats = farm.cache.read_stats()
        assert stats["retries"] >= 1
