"""Cross-process telemetry: worker envelopes, span round-trips, merging.

The farm is the only place telemetry crosses a process boundary, so the
contracts pinned here are the distributed-observability story end to
end: a worker's spans and metrics ride home on the job result, the
master folds them under ``farm.worker.*``, parent/child span links
survive pickling, worker spans land on the master's one clock, bound
and id sequence, and an envelope the master cannot merge fails loudly
instead of vanishing.
"""

from __future__ import annotations

import logging
import pickle
import time

import pytest

import tests.farm.measures_for_tests  # noqa: F401  (registers test.* measures)
from repro.farm import Farm, FarmConfig, Job
from repro.farm.registry import instrumented_execute
from repro.telemetry.session import (
    TelemetrySession,
    activate,
    active,
    deactivate,
)
from repro.telemetry.spans import (
    WALL_CLOCK,
    WORKER_PID,
    merged_chrome_trace,
    spans_from_dicts,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert active() is None, "a telemetry session leaked into this test"
    yield
    if active() is not None:  # pragma: no cover - cleanup on test failure
        deactivate()


def _jobs(measure, n, base_seed=0):
    return [Job(measure, {}, seed=base_seed + i) for i in range(n)]


class TestInstrumentedExecute:
    CTX = {"run_id": "runabc", "job_key": "deadbeef", "profile": False}

    def test_value_and_envelope_shape(self):
        import os

        value, elapsed, envelope = instrumented_execute(
            self.CTX, "test.double", {}, seed=21
        )
        assert value == 42.0
        assert elapsed >= 0.0
        assert envelope["v"] == 1
        assert envelope["worker_pid"] == os.getpid()
        assert envelope["run_id"] == "runabc"
        assert envelope["job_key"] == "deadbeef"
        assert active() is None  # the per-job session was torn down

    def test_span_parent_links_survive_pickling(self):
        _, _, envelope = instrumented_execute(
            self.CTX, "test.spanned", {}, seed=5
        )
        wire = pickle.loads(pickle.dumps(envelope))
        spans = spans_from_dicts(wire["spans"])
        by_name = {s.name: s for s in spans}
        job = by_name["worker.job"]
        inner = by_name["test.inner"]
        assert job.parent_id is None
        assert inner.parent_id == job.span_id
        assert job.args["run_id"] == "runabc"
        assert job.args["job_key"] == "deadbeef"
        assert job.args["measure"] == "test.spanned"
        assert job.args["seed"] == 5
        assert inner.args == {"seed": 5}

    def test_worker_metrics_travel_in_the_envelope(self):
        _, _, envelope = instrumented_execute(
            self.CTX, "test.metered", {}, seed=9
        )
        series = envelope["metrics"]["series"]
        assert series["test.work"] == {"kind": "counter", "value": 10}
        assert series["test.sizes"]["kind"] == "histogram"
        assert series["test.sizes"]["count"] == 1


class TestFarmRoundTrip:
    def _pool_ran(self, farm) -> bool:
        # restricted environments degrade to serial; these assertions
        # only hold when a real pool executed the batch
        return not farm.last_run.fallback_serial

    def test_worker_spans_reach_the_master_session(self, tmp_path):
        session = activate(TelemetrySession())
        try:
            farm = Farm(FarmConfig(cache_dir=tmp_path, max_workers=2))
            values = farm.run_jobs(_jobs("test.spanned", 4))
        finally:
            deactivate()
        assert values == [0.0, 2.0, 4.0, 6.0]
        if not self._pool_ran(farm):  # pragma: no cover - restricted env
            pytest.skip("no process pool available")

        worker = [
            s for s in session.spans.spans if s.lane.startswith("worker ")
        ]
        assert worker, "no worker lanes came home"
        jobs = [s for s in worker if s.name == "worker.job"]
        inner = [s for s in worker if s.name == "test.inner"]
        assert len(jobs) == len(inner) == 4
        for job, child in zip(jobs, inner):
            assert child.parent_id == job.span_id
            assert child.lane == job.lane
            assert job.args["run_id"] == session.run_id
            assert job.args["job_key"]

        snapshot = session.metrics.snapshot()
        assert snapshot["farm.telemetry.envelopes"] == 4
        assert snapshot["farm.telemetry.aggregation_secs"] >= 0.0
        # and the master recorded its own side of the batch
        names = {s.name for s in session.spans.spans}
        assert "farm.batch" in names
        assert "farm.submit" in names
        assert "farm.result" in names

    def test_serial_and_pool_aggregate_equal_deterministic_counters(
        self, tmp_path
    ):
        serial_session = activate(TelemetrySession())
        try:
            serial = Farm(
                FarmConfig(cache_dir=tmp_path / "serial", max_workers=1)
            )
            serial_values = serial.run_jobs(_jobs("test.metered", 4, 1))
        finally:
            deactivate()

        pool_session = activate(TelemetrySession())
        try:
            pool = Farm(
                FarmConfig(cache_dir=tmp_path / "pool", max_workers=2)
            )
            pool_values = pool.run_jobs(_jobs("test.metered", 4, 1))
        finally:
            deactivate()

        assert pool_values == serial_values
        if not self._pool_ran(pool):  # pragma: no cover - restricted env
            pytest.skip("no process pool available")

        serial_snapshot = serial_session.metrics.snapshot()
        pool_snapshot = pool_session.metrics.snapshot()
        # serial execution published straight into the master registry;
        # pool workers came home under farm.worker.* — same totals
        assert (
            pool_snapshot["farm.worker.test.work"]
            == serial_snapshot["test.work"]
            == sum(seed + 1 for seed in (1, 2, 3, 4))
        )
        assert (
            pool_snapshot["farm.worker.test.sizes"]
            == serial_snapshot["test.sizes"]
        )

    def test_cache_hits_produce_no_envelopes(self, tmp_path):
        config = FarmConfig(cache_dir=tmp_path, max_workers=2)
        session = activate(TelemetrySession())
        try:
            Farm(config).run_jobs(_jobs("test.double", 3))
        finally:
            deactivate()
        executed = session.metrics.snapshot().get("farm.telemetry.envelopes", 0)

        second_session = activate(TelemetrySession())
        try:
            farm = Farm(config)
            values = farm.run_jobs(_jobs("test.double", 3))
        finally:
            deactivate()
        assert values == [0.0, 2.0, 4.0]
        assert farm.last_run.cache_hits == 3
        snapshot = second_session.metrics.snapshot()
        assert snapshot.get("farm.telemetry.envelopes", 0) == 0
        assert executed in (0, 3)  # 0 if the pool degraded to serial

    def test_pool_without_session_still_returns_plain_values(self, tmp_path):
        farm = Farm(FarmConfig(cache_dir=tmp_path, max_workers=2))
        assert farm.run_jobs(_jobs("test.double", 3)) == [0.0, 2.0, 4.0]
        assert active() is None


def _inside_a_batch(event, batches) -> bool:
    end = event["ts"] + event.get("dur", 0.0)
    return any(
        batch["ts"] <= event["ts"] and end <= batch["ts"] + batch["dur"]
        for batch in batches
    )


class TestOneTimeline:
    """Worker spans and farm records share the master's clock, bound
    and id sequence."""

    def _timeline(self, session, tmp_path, workers):
        farm = Farm(FarmConfig(cache_dir=tmp_path, max_workers=workers))
        activate(session)
        try:
            time.sleep(0.05)  # an idle gap before the first batch
            farm.run_jobs(_jobs("test.spanned", 4))
            farm.run_jobs(_jobs("test.spanned", 4, base_seed=4))
        finally:
            deactivate()
        return farm, merged_chrome_trace(session)["traceEvents"]

    def test_worker_and_farm_records_lie_inside_their_batch(self, tmp_path):
        farm, events = self._timeline(TelemetrySession(), tmp_path, 2)
        if farm.last_run.fallback_serial:  # pragma: no cover - restricted env
            pytest.skip("no process pool available")
        batches = [e for e in events if e.get("name") == "farm.batch"]
        assert len(batches) == 2
        worker_jobs = [e for e in events if e.get("name") == "worker.job"]
        farm_records = [e for e in events if e.get("cat") == "farm"]
        assert len(worker_jobs) == len(farm_records) == 8
        for event in worker_jobs + farm_records:
            assert _inside_a_batch(event, batches), event

    def test_serial_farm_records_lie_inside_their_batch(self, tmp_path):
        _, events = self._timeline(TelemetrySession(), tmp_path, 1)
        batches = [e for e in events if e.get("name") == "farm.batch"]
        farm_records = [e for e in events if e.get("cat") == "farm"]
        assert len(batches) == 2 and len(farm_records) == 8
        for event in farm_records:
            assert _inside_a_batch(event, batches), event

    def test_one_bound_and_unique_ids(self, tmp_path):
        session = TelemetrySession(trace_capacity=16)
        farm = Farm(FarmConfig(cache_dir=tmp_path, max_workers=2))
        activate(session)
        try:
            farm.run_jobs(_jobs("test.spanned", 40))
        finally:
            deactivate()
        if farm.last_run.fallback_serial:  # pragma: no cover - restricted env
            pytest.skip("no process pool available")
        assert farm.last_run.retries == 0
        # farm.batch and farm.submit, then per job farm.result, the
        # farm's job record and farm.cache_write, plus the worker's
        # worker.job and test.inner
        offered = 2 + 40 * 3 + 40 * 2
        retained = len(session.spans.records(WALL_CLOCK))
        assert retained == 16
        assert session.snapshot()["telemetry.dropped"] == offered - retained

        trace = merged_chrome_trace(session)
        assert trace["otherData"]["dropped"] == offered - retained
        spans = [e for e in trace["traceEvents"] if e.get("cat") == "span"]
        ids = [e["args"]["span_id"] for e in spans]
        assert len(ids) == len(set(ids))
        lane_of = {e["args"]["span_id"]: (e["pid"], e["tid"]) for e in spans}
        for event in spans:
            parent = event["args"]["parent_id"]
            if parent is not None:
                assert lane_of[parent] == (event["pid"], event["tid"])
        assert any(e["pid"] == WORKER_PID for e in spans)


class TestFailLoudly:
    def _farm(self, tmp_path):
        return Farm(FarmConfig(cache_dir=tmp_path, max_workers=2))

    def test_unmergeable_envelope_counts_and_logs_once(self, tmp_path, caplog):
        session = activate(TelemetrySession())
        try:
            farm = self._farm(tmp_path)
            with caplog.at_level(logging.WARNING, logger="repro.farm.pool"):
                farm._absorb_envelope({"v": 99, "spans": []})
                farm._absorb_envelope({"nonsense": True})
        finally:
            deactivate()
        assert (
            session.metrics.snapshot()["farm.telemetry_dropped"] == 2
        )
        warnings = [
            r for r in caplog.records
            if "farm.telemetry_dropped" in r.getMessage()
        ]
        assert len(warnings) == 1  # loud, but once per farm

    def test_absorb_without_session_is_a_noop(self, tmp_path):
        farm = self._farm(tmp_path)
        farm._absorb_envelope({"v": 99})  # must not raise