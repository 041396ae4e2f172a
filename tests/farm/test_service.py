"""FarmService: journaled intake, poison quarantine, exactly-once resume."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.farm import (
    Farm,
    FarmConfig,
    FarmService,
    Job,
    JobJournal,
    ServiceConfig,
    SupervisorConfig,
)
from repro.farm.journal import DONE, FAILED, LEASED, POISONED, QUEUED
from repro.farm.service import journal_rows
from repro.farm.supervisor import POISON_FILE
from repro.faults.infra import WorkerFaults, chaos_probe
from repro.telemetry.session import TelemetrySession, activate, deactivate

import tests.farm.measures_for_tests  # noqa: F401  (registers test.*)


def _service(cache_dir, *, workers: int = 1, **service_kw) -> FarmService:
    return FarmService(
        ServiceConfig(
            farm=FarmConfig(max_workers=workers, cache_dir=cache_dir),
            **service_kw,
        )
    )


def _doubles(n: int) -> list[Job]:
    return [Job("test.double", {}, seed=i) for i in range(n)]


class TestServiceRun:
    def test_run_returns_a_done_ticket_with_values(self, tmp_path):
        service = _service(tmp_path)
        ticket = service.run(_doubles(4), client="t")
        assert ticket.state == "done"
        assert ticket.results == [0.0, 2.0, 4.0, 6.0]
        assert service.journal.counts()[DONE] == 4
        assert service.status()["tickets_completed"] == 1

    def test_unnamed_batches_get_ticket_labels(self, tmp_path):
        service = _service(tmp_path)
        ticket = service.submit(_doubles(1))
        assert ticket.batch == "ticket-1"

    def test_ticket_summary_shape(self, tmp_path):
        ticket = _service(tmp_path).submit(_doubles(2), client="c", batch="b")
        assert ticket.summary() == {
            "ticket": 1,
            "client": "c",
            "batch": "b",
            "jobs": 2,
            "state": "queued",
            "error": "",
        }

    def test_drain_runs_tickets_in_submit_order(self, tmp_path):
        service = _service(tmp_path)
        first = service.submit(_doubles(1), client="a")
        second = service.submit(_doubles(2), client="a")
        third = service.submit(_doubles(3), client="b")
        assert service.drain() == [first, second, third]
        assert service.completed == [first, second, third]
        assert third.results == [0.0, 2.0, 4.0]

    def test_large_ticket_runs_on_the_pool(self, tmp_path, monkeypatch):
        pooled = []
        run_pool = Farm._run_pool

        def spy(farm, pending, *args):
            pooled.append(len(pending))
            return run_pool(farm, pending, *args)

        monkeypatch.setattr(Farm, "_run_pool", spy)
        ticket = _service(tmp_path, workers=2).run(_doubles(65))
        assert pooled == [65]
        assert ticket.state == "done"
        assert ticket.results == [seed * 2.0 for seed in range(65)]

    def test_render_status_names_every_plane(self, tmp_path):
        service = _service(tmp_path)
        service.run(_doubles(2))
        rendered = service.render_status()
        for token in ("journal", "queue", "supervisor", "cache"):
            assert token in rendered

    def test_journal_rows_tabulates_entries(self, tmp_path):
        service = _service(tmp_path)
        service.run(_doubles(1), client="cli", batch="b7")
        table = journal_rows(service.journal.entries())
        assert "test.double" in table
        assert "b7" in table
        assert "cli" in table


class TestPoisonQuarantine:
    def test_poisoned_ticket_reports_the_reason(self, tmp_path):
        service = FarmService(
            ServiceConfig(
                farm=FarmConfig(
                    max_workers=2,
                    cache_dir=tmp_path,
                    max_retries=3,
                    backoff_base=0.0,
                ),
                supervisor=SupervisorConfig(poison_strikes=2),
            )
        )
        job = Job("test.crash_always", {}, seed=0)
        ticket = service.run([job], client="t")
        assert ticket.state == "poisoned"
        reason = ticket.reasons[job.key()]
        assert reason["code"] == "poisoned"
        assert service.journal.get(job.key()).state == POISONED
        assert (tmp_path / POISON_FILE).exists()
        # the service survives: the next healthy batch still runs
        after = service.run(_doubles(2), client="t")
        assert after.state == "done" and after.results == [0.0, 2.0]


class TestOneDegradePath:
    """Only the pool's per-batch breaker degrades a batch to serial."""

    def test_failed_ticket_leaves_the_next_one_on_the_pool(self, tmp_path):
        service = FarmService(
            ServiceConfig(
                farm=FarmConfig(
                    max_workers=2, cache_dir=tmp_path, backoff_base=0.0
                ),
                # more strikes than rounds: the job exhausts its retries
                # instead of being quarantined
                supervisor=SupervisorConfig(poison_strikes=4),
            )
        )
        service.run(_doubles(2))
        if service.farm.last_run.fallback_serial:  # pragma: no cover
            pytest.skip("no process pool available")
        failed = service.run([Job("test.crash_always", {}, seed=0)])
        assert failed.state == "failed"
        assert "still failing" in failed.error
        healthy = service.run(
            [Job("test.double", {}, seed=i) for i in (10, 11, 12)]
        )
        assert healthy.state == "done"
        assert healthy.results == [20.0, 22.0, 24.0]
        run = service.farm.last_run
        assert run.executed == 3
        assert not run.breaker_tripped
        assert not run.fallback_serial


class TestPublishedCounters:
    def test_each_batch_publishes_its_own_increments(self, tmp_path):
        tmp_path.joinpath("journal.jsonl").write_text("not json\n")
        service = FarmService(
            ServiceConfig(
                farm=FarmConfig(
                    max_workers=2,
                    cache_dir=tmp_path,
                    backoff_base=0.0,
                    # every ticket's one job loses its first worker
                    worker_faults=WorkerFaults(kills=frozenset({0})),
                )
            )
        )
        session = activate(TelemetrySession())
        try:
            for seed in range(3):
                service.run([Job("chaos.probe", {}, seed=seed)])
        finally:
            deactivate()
        snap = session.metrics.snapshot()
        assert service.journal.corrupt == 1
        assert snap["farm.service.journal.corrupt"] == 1
        assert snap.get("farm.service.fenced_commits", 0) == 0
        strikes = service.supervisor.strikes
        assert snap.get("farm.supervisor.strikes", 0) == strikes
        if not service.farm.last_run.fallback_serial:
            assert strikes == 3

    def test_resume_publishes_the_corruption_its_scan_found(self, tmp_path):
        jobs = _doubles(2)
        _service(tmp_path).journal.queue(
            [(job, job.key()) for job in jobs], batch="b", client="c"
        )
        with open(tmp_path / "journal.jsonl", "a") as journal:
            journal.write("not json\n")
        session = activate(TelemetrySession())
        try:
            report = _service(tmp_path).resume()
        finally:
            deactivate()
        assert report["executed"] == 2
        snap = session.metrics.snapshot()
        assert snap["farm.service.journal.corrupt"] == 1


class TestResumeExactlyOnce:
    """Satellite: any SIGKILL point resumes bit-identical, no job twice."""

    def test_every_crash_point_resumes_bit_identical(self, tmp_path):
        n = 4
        expected = [seed * 2.0 for seed in range(n)]
        for k in range(n + 1):
            workdir = tmp_path / f"crash-at-{k}"
            workdir.mkdir()
            counter = workdir / "counter.txt"
            jobs = [
                Job("test.counted", {"counter_file": str(counter)}, seed=i)
                for i in range(n)
            ]
            keys = [job.key() for job in jobs]
            crashed = _service(workdir / "cache")
            # write-ahead: the whole batch is durable before any job runs
            crashed.journal.queue(zip(jobs, keys), batch="b", client="c")
            if k:
                crashed.farm.batch_label = "b"
                crashed.farm.client_id = "c"
                crashed.farm.run_jobs(jobs[:k])  # ...SIGKILL lands here
            revived = _service(workdir / "cache")  # a fresh process
            report = revived.resume()
            assert report["incomplete"] == n - k
            assert report["executed"] == n - k
            assert report["reconciled"] == 0
            # each job executed exactly once across both lives
            executed = sorted(int(s) for s in counter.read_text().split())
            assert executed == list(range(n))
            values = [revived.farm.cache.get(key)[1] for key in keys]
            assert values == expected
            assert revived.journal.counts()[DONE] == n

    def test_crash_between_cache_write_and_commit_reconciles(self, tmp_path):
        counter = tmp_path / "counter.txt"
        job = Job("test.counted", {"counter_file": str(counter)}, seed=5)
        key = job.key()
        crashed = _service(tmp_path / "cache")
        crashed.journal.queue([(job, key)], batch="b", client="c")
        crashed.journal.lease(key)
        # the crash window: value durable, the commit never landed
        crashed.farm.cache.put(key, 10.0, measure=job.measure, seed=job.seed)
        revived = _service(tmp_path / "cache")
        report = revived.resume()
        assert report == {
            "incomplete": 1,
            "reconciled": 1,
            "executed": 0,
            "unreplayable": 0,
        }
        assert not counter.exists()  # reconciled, never re-executed
        assert revived.journal.get(key).state == DONE

    def test_unreplayable_params_fail_cleanly(self, tmp_path):
        service = _service(tmp_path)
        job = Job("test.double", {"handle": object()}, seed=0)
        key = "f" * 64
        service.journal.queue([(job, key)], batch="b", client="c")
        report = FarmService(
            ServiceConfig(farm=FarmConfig(max_workers=1, cache_dir=tmp_path))
        ).resume()
        assert report["unreplayable"] == 1
        entry = JobJournal(tmp_path).get(key)
        assert entry.state == FAILED
        assert entry.reason["code"] == "unreplayable"

    def test_resume_with_a_clean_journal_is_a_noop(self, tmp_path):
        service = _service(tmp_path)
        service.run(_doubles(2))
        report = _service(tmp_path).resume()
        assert report["incomplete"] == 0


class TestRealSigkill:
    """A genuine SIGKILL mid-batch, then resume in a second process."""

    def test_sigkill_mid_batch_then_resume(self, tmp_path):
        cache = tmp_path / "cache"
        sentinel = tmp_path / "kill-sentinel"
        sentinel.write_text("armed")
        script = textwrap.dedent(
            f"""
            from repro.farm import FarmConfig, FarmService, Job, ServiceConfig

            jobs = [
                Job(
                    "chaos.kill_probe",
                    {{"sentinel": {str(sentinel)!r}, "kill_seed": 2}},
                    seed=i,
                )
                for i in range(4)
            ]
            service = FarmService(
                ServiceConfig(
                    farm=FarmConfig(max_workers=1, cache_dir={str(cache)!r})
                )
            )
            service.run(jobs, client="kill")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == -signal.SIGKILL

        journal = JobJournal(cache)
        counts = journal.counts()
        assert counts[DONE] == 2  # seeds 0 and 1 committed before the kill
        assert counts[LEASED] == 1  # the victim died holding its lease
        assert counts[QUEUED] == 1  # seed 3 never started

        sentinel.unlink()
        revived = _service(cache)
        report = revived.resume()
        assert report["executed"] == 2
        assert revived.journal.counts()[DONE] == 4
        jobs = [
            Job(
                "chaos.kill_probe",
                {"sentinel": str(sentinel), "kill_seed": 2},
                seed=i,
            )
            for i in range(4)
        ]
        values = [revived.farm.cache.get(job.key())[1] for job in jobs]
        assert values == [chaos_probe(i) for i in range(4)]
