"""Worker supervision: strike attribution and poison quarantine."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.farm import SupervisorConfig, WorkerSupervisor
from repro.farm.supervisor import (
    POISON_FILE,
    STRIKE_DEADLINE,
    STRIKE_WORKER_CRASH,
)
from repro.telemetry.registry import MetricsRegistry


class TestPoisoning:
    def test_strikes_in_one_generation_do_not_poison(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        assert (
            supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
            is None
        )
        # same pool generation again: could still be a flaky worker
        assert (
            supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
            is None
        )
        assert supervisor.poisoned == {}

    def test_two_distinct_generations_poison_the_job(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
        reason = supervisor.record_strike("k", STRIKE_DEADLINE, "hung", 1)
        assert reason is not None
        assert reason["code"] == "poisoned"
        assert reason["workers_killed"] == 2
        assert len(reason["strikes"]) == 2
        assert "2 distinct worker generations" in reason["verdict"]
        assert supervisor.poisoned["k"] is reason

    def test_strikes_are_attributed_per_job(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("a", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("b", STRIKE_WORKER_CRASH, "", 1)
        assert supervisor.poisoned == {}
        assert len(supervisor.strikes_for("a")) == 1
        assert len(supervisor.strikes_for("b")) == 1

    def test_poison_is_ledgered_as_jsonl(self, tmp_path):
        supervisor = WorkerSupervisor(
            SupervisorConfig(poison_strikes=2), ledger_dir=tmp_path
        )
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 1)
        lines = (tmp_path / POISON_FILE).read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["code"] == "poisoned"
        assert record["job_key"] == "k"
        assert "ts" in record

    def test_poison_ledger_rotates_under_its_budget(self, tmp_path):
        supervisor = WorkerSupervisor(
            SupervisorConfig(poison_strikes=1, poison_ledger_bytes=400),
            ledger_dir=tmp_path,
        )
        for i in range(8):
            supervisor.record_strike(f"job-{i}", STRIKE_WORKER_CRASH, "", i)
        ledger = tmp_path / POISON_FILE
        assert ledger.stat().st_size <= 800  # budget + one generation
        assert (tmp_path / f"{POISON_FILE}.1").exists()


class TestConfigAndReporting:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(poison_strikes=0)

    def test_publish_and_summary(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 1)
        summary = supervisor.summary()
        assert summary["poisoned"] == 1
        assert summary["strikes"] == 2
        registry = MetricsRegistry()
        supervisor.publish(registry)
        snap = registry.snapshot()
        assert snap["farm.supervisor.strikes"] == 2
