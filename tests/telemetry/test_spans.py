"""The timeline recorder: nesting, the per-clock bound, the machine and
farm emitters, serialization, worker lanes and the Chrome export.

The recorder is the one place a timeline is kept: simulated-clock
records from the machine and wall-clock spans from the master and the
farm's workers.  These tests pin the parts that must survive a process
boundary — ids, parent links, the serialized record layout — the bound
and its one drop counter, and the layout of the exported trace.
"""

from __future__ import annotations

import json

import pytest

from repro._types import Component
from repro.errors import TelemetryError
from repro.machine.traps import TrapFrame, TrapKind
from repro.telemetry.session import (
    TelemetrySession,
    activate,
    active,
    deactivate,
)
from repro.telemetry.spans import (
    CYCLES_PER_US,
    FARM_PID,
    JOBS_LANE,
    MACHINE_PID,
    SIM_CLOCK,
    WALL_CLOCK,
    WORKER_PID,
    SpanRecorder,
    chrome_span_events,
    merge_chrome_traces,
    merged_chrome_trace,
    new_run_id,
    span,
    span_from_dict,
    spans_from_dicts,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert active() is None, "a telemetry session leaked into this test"
    yield
    if active() is not None:  # pragma: no cover - cleanup on test failure
        deactivate()


def _sim(recorder: SpanRecorder, i: int) -> None:
    recorder.record(f"e{i}", float(i), clock=SIM_CLOCK, lane="lane")


class TestSpanRecorder:
    def test_nesting_assigns_parent_ids(self):
        recorder = SpanRecorder()
        with recorder.span("batch") as batch:
            with recorder.span("job") as job:
                with recorder.span("measure") as measure:
                    pass
            with recorder.span("cache_write") as write:
                pass
        assert batch.parent_id is None
        assert job.parent_id == batch.span_id
        assert measure.parent_id == job.span_id
        assert write.parent_id == batch.span_id
        assert len(recorder) == 4

    def test_sibling_spans_do_not_parent_each_other(self):
        recorder = SpanRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second") as second:
            pass
        assert second.parent_id is None

    def test_durations_are_positive_and_start_monotone(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        a, b = recorder.spans
        assert a.dur_us >= 0.0 and b.dur_us >= 0.0
        assert b.start_us >= a.start_us

    def test_capacity_drops_latest_deepest_roots_survive(self):
        recorder = SpanRecorder(capacity=2)
        with recorder.span("root") as root:
            with recorder.span("child") as child:
                with recorder.span("grandchild") as grandchild:
                    pass
            with recorder.span("second_child") as second:
                pass
        # slots claimed on entry: root and child got in, the rest dropped
        assert root is not None and child is not None
        assert grandchild is None and second is None
        assert [s.name for s in recorder.spans] == ["root", "child"]
        assert recorder.dropped == 2

    def test_dropped_span_does_not_corrupt_parent_stack(self):
        recorder = SpanRecorder(capacity=1)
        with recorder.span("root") as root:
            with recorder.span("dropped") as nothing:
                pass
        assert nothing is None
        # the drop never pushed onto the stack, so closing "root" still
        # balances and a later recorder use is sane
        assert root.dur_us >= 0.0
        assert recorder._stack == []

    def test_args_are_recorded(self):
        recorder = SpanRecorder()
        with recorder.span("job", job_key="abc123", seed=7) as record:
            pass
        assert record.args == {"job_key": "abc123", "seed": 7}

    def test_bad_capacity_rejected(self):
        for capacity in (0, -1):
            with pytest.raises(TelemetryError):
                SpanRecorder(capacity=capacity)


class TestBound:
    def test_capacity_must_be_positive(self):
        for capacity in (0, -1):
            with pytest.raises(TelemetryError):
                TelemetrySession(trace_capacity=capacity)

    def test_under_capacity_keeps_everything(self):
        recorder = SpanRecorder(capacity=8)
        for i in range(5):
            _sim(recorder, i)
        assert len(recorder) == 5
        assert recorder.dropped == 0
        assert [r.name for r in recorder.records(SIM_CLOCK)] == [
            f"e{i}" for i in range(5)
        ]

    def test_exactly_full_is_not_a_drop(self):
        recorder = SpanRecorder(capacity=3)
        for i in range(3):
            _sim(recorder, i)
        assert recorder.dropped == 0
        assert [r.name for r in recorder.records(SIM_CLOCK)] == [
            "e0", "e1", "e2",
        ]

    def test_simulated_records_do_not_crowd_out_spans(self):
        recorder = SpanRecorder(capacity=4)
        for i in range(10):
            _sim(recorder, i)
        opened = []
        for i in range(5):
            with recorder.span(f"s{i}") as record:
                opened.append(record)
        # each clock has its own bound: four spans still fit, the fifth
        # is refused
        assert all(record is not None for record in opened[:4])
        assert opened[4] is None
        assert len(recorder.records(WALL_CLOCK)) == 4
        # claim on entry: the first simulated records are the ones kept
        assert [r.name for r in recorder.records(SIM_CLOCK)] == [
            "e0", "e1", "e2", "e3",
        ]
        assert recorder.drops == {SIM_CLOCK: 6, WALL_CLOCK: 1}
        assert recorder.dropped == 7

    def test_snapshot_publishes_drops_once(self):
        session = TelemetrySession(trace_capacity=2)
        assert session.snapshot()["telemetry.dropped"] == 0
        for i in range(5):
            _sim(session.spans, i)
        assert session.snapshot()["telemetry.dropped"] == 3
        # a second snapshot does not count the same drops again
        assert session.snapshot()["telemetry.dropped"] == 3


class TestEmitters:
    def test_trap_event_converts_cycles_to_microseconds(self):
        recorder = SpanRecorder()
        frame = TrapFrame(
            kind=TrapKind.ECC_ERROR,
            tid=3,
            component=Component.USER,
            va=0x1000,
            pa=0x2000,
            cycle=250,
        )
        recorder.trap(frame, handler_cycles=246)
        (record,) = recorder.spans
        assert record.name == "ecc_error"
        assert record.clock == SIM_CLOCK
        assert record.lane == "user"
        assert record.start_us == pytest.approx(250 / CYCLES_PER_US)
        assert record.dur_us == pytest.approx(246 / CYCLES_PER_US)
        assert record.args == {
            "tid": 3, "va": 0x1000, "pa": 0x2000, "cycle": 250,
            "handler_cycles": 246,
        }

    def test_page_fault_and_clock_events(self):
        recorder = SpanRecorder()
        recorder.page_fault(100, Component.KERNEL, tid=0, vpn=7)
        recorder.clock_ticks(200, ticks=2)
        fault, tick = recorder.spans
        assert (fault.name, fault.lane, fault.clock) == (
            "page_fault", "kernel", SIM_CLOCK,
        )
        assert fault.args == {"tid": 0, "vpn": 7, "cycle": 100}
        assert (tick.name, tick.lane, tick.args["ticks"]) == (
            "clock_tick", "clock", 2,
        )

    def test_farm_event_ends_now_on_the_wall_clock(self):
        recorder = SpanRecorder()
        before = recorder.now_us()
        recorder.farm_event("job", dur_secs=0.25, measure="m", seed=1)
        after = recorder.now_us()
        (record,) = recorder.spans
        assert (record.clock, record.lane) == (WALL_CLOCK, JOBS_LANE)
        assert record.dur_us == pytest.approx(250_000.0)
        end = record.start_us + record.dur_us
        assert before <= end <= after
        assert record.args == {"measure": "m", "seed": 1}


class TestSerialization:
    def _record_two(self):
        recorder = SpanRecorder()
        with recorder.span("worker.job", run_id="r1", job_key="k1"):
            with recorder.span("measure"):
                pass
        return recorder

    def test_round_trip_preserves_ids_and_parents(self):
        recorder = self._record_two()
        hydrated = spans_from_dicts(recorder.to_dicts())
        assert [s.name for s in hydrated] == ["worker.job", "measure"]
        outer, inner = hydrated
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.args == {"run_id": "r1", "job_key": "k1"}
        assert inner.args is None

    def test_round_trip_is_json_safe(self):
        recorder = self._record_two()
        wire = json.loads(json.dumps(recorder.to_dicts()))
        hydrated = spans_from_dicts(wire)
        assert hydrated[1].parent_id == hydrated[0].span_id

    def test_simulated_records_are_not_serialized(self):
        recorder = self._record_two()
        _sim(recorder, 0)
        assert [r["name"] for r in recorder.to_dicts()] == [
            "worker.job", "measure",
        ]

    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"name": "x"},
            {"name": "x", "id": "not-a-number", "parent": None,
             "start_us": 0.0, "dur_us": 0.0},
            {"name": "x", "id": 1, "parent": None, "start_us": "soon",
             "dur_us": 0.0},
        ],
    )
    def test_malformed_record_raises(self, record):
        with pytest.raises(TelemetryError):
            span_from_dict(record)


class TestAbsorb:
    def _worker_spans(self):
        worker = SpanRecorder()
        with worker.span("worker.job"):
            with worker.span("test.inner"):
                pass
        return spans_from_dicts(worker.to_dicts())

    def test_renumbered_from_the_master_sequence_on_one_lane(self):
        master = SpanRecorder()
        with master.span("farm.batch") as batch:
            master.absorb(self._worker_spans(), worker=7)
            master.absorb(self._worker_spans(), worker=7)
        ids = [record.span_id for record in master.spans]
        assert len(ids) == len(set(ids)) == 5
        jobs = [r for r in master.spans if r.name == "worker.job"]
        inners = [r for r in master.spans if r.name == "test.inner"]
        assert {r.lane for r in jobs + inners} == {"worker 7"}
        assert [r.parent_id for r in inners] == [r.span_id for r in jobs]
        assert all(r.parent_id is None for r in jobs)
        assert all(r.args["worker"] == 7 for r in jobs + inners)
        # shifted onto the master's clock: inside the batch that
        # received them
        for record in jobs + inners:
            assert batch.start_us <= record.start_us
            assert (
                record.start_us + record.dur_us
                <= batch.start_us + batch.dur_us
            )

    def test_bounded_by_the_master_and_worker_drops_added(self):
        master = SpanRecorder(capacity=3)
        master.absorb(self._worker_spans(), worker=1, dropped=4)
        master.absorb(self._worker_spans(), worker=2)
        assert [r.name for r in master.spans] == [
            "worker.job", "test.inner", "worker.job",
        ]
        assert master.drops == {SIM_CLOCK: 0, WALL_CLOCK: 5}


class TestModuleLevelSpan:
    def test_noop_without_session(self):
        with span("anything") as record:
            assert record is None

    def test_records_on_active_session(self):
        session = activate(TelemetrySession())
        try:
            with span("farm.batch", jobs=3) as record:
                pass
        finally:
            deactivate()
        assert record is not None
        assert [s.name for s in session.spans.spans] == ["farm.batch"]
        assert session.spans.spans[0].args == {"jobs": 3}


class TestChromeRendering:
    def _session(self) -> TelemetrySession:
        session = TelemetrySession(trace_capacity=16)
        frame = TrapFrame(
            kind=TrapKind.PAGE_INVALID,
            tid=1,
            component=Component.USER,
            va=0,
            pa=0,
            cycle=500,
        )
        session.spans.trap(frame, handler_cycles=246)
        session.spans.clock_ticks(1000, ticks=1)
        session.spans.farm_event("cache_hit")
        return session

    def test_structure_and_metadata(self):
        trace = merged_chrome_trace(self._session())
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["pid"]) for e in meta}
        assert ("process_name", MACHINE_PID) in names
        assert ("process_name", FARM_PID) in names
        # one thread_name per (pid, lane) actually used
        lanes = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "thread_name"
        }
        assert lanes == {
            (MACHINE_PID, "user"),
            (MACHINE_PID, "clock"),
            (FARM_PID, "jobs"),
        }

    def test_phases_durations_and_json_round_trip(self):
        session = self._session()
        payload = json.loads(json.dumps(merged_chrome_trace(session)))
        real = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert [(e["name"], e["cat"]) for e in real] == [
            ("page_invalid", "trap"),
            ("clock_tick", "clock"),
            ("cache_hit", "farm"),
        ]
        for event in real:
            assert {"name", "cat", "pid", "tid", "ts", "ph"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] > 0
            else:
                assert event["ph"] == "i"
                assert event["s"] == "t"
        assert payload["otherData"] == {
            "run_id": session.run_id,
            "capacity": 16,
            "dropped": 0,
            "worker_lanes": 0,
        }

    def test_span_events_carry_lane_and_correlation(self):
        recorder = SpanRecorder()
        with recorder.span("job", job_key="k"):
            pass
        (event,) = chrome_span_events(
            recorder.spans, pid=WORKER_PID, tid=2, shift_us=100.0, run_id="r"
        )
        assert event["ph"] == "X" and event["cat"] == "span"
        assert event["pid"] == WORKER_PID and event["tid"] == 2
        assert event["ts"] == pytest.approx(
            recorder.spans[0].start_us + 100.0
        )
        assert event["dur"] >= 0.001  # zero-length spans stay visible
        assert event["args"]["run_id"] == "r"
        assert event["args"]["job_key"] == "k"
        assert event["args"]["span_id"] == recorder.spans[0].span_id

    def test_merged_trace_has_master_and_worker_lanes(self):
        session = TelemetrySession()
        envelope = {
            "v": 1,
            "worker_pid": 4242,
            "run_id": session.run_id,
            "job_key": "k",
            "spans": [
                {"name": "worker.job", "id": 1, "parent": None,
                 "start_us": 0.0, "dur_us": 5.0},
            ],
            "dropped": 0,
            "metrics": {"v": 1, "series": {}},
        }
        with session.spans.span("farm.batch"):
            session.absorb_worker_envelope(envelope)
        trace = merged_chrome_trace(session)
        events = trace["traceEvents"]

        master = [
            e for e in events
            if e.get("pid") == FARM_PID and e.get("cat") == "span"
        ]
        assert [e["name"] for e in master] == ["farm.batch"]

        worker = [
            e for e in events
            if e.get("pid") == WORKER_PID and e.get("ph") == "X"
        ]
        (job_event,) = worker
        (batch,) = master
        assert batch["ts"] <= job_event["ts"]
        assert job_event["ts"] + 5.0 <= batch["ts"] + batch["dur"]
        assert job_event["args"]["run_id"] == session.run_id
        assert job_event["args"]["worker"] == 4242
        assert job_event["args"]["span_id"] != batch["args"]["span_id"]

        names = [
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("pid") == WORKER_PID
        ]
        assert "farm workers" in names
        assert "worker 4242" in names

        other = trace["otherData"]
        assert other["run_id"] == session.run_id
        assert other["worker_lanes"] == 1

    def test_run_ids_are_fresh(self):
        assert new_run_id() != new_run_id()
        assert len(new_run_id()) == 12


class TestMergeChromeTraces:
    def _trace(self, pid, name):
        return {
            "traceEvents": [
                {"name": name, "ph": "X", "pid": pid, "tid": 1,
                 "ts": 0.0, "dur": 1.0},
            ],
            "otherData": {"run_id": name},
        }

    def test_pids_remapped_into_disjoint_blocks(self):
        merged = merge_chrome_traces(
            [self._trace(1, "first"), self._trace(1, "second")]
        )
        pids = [e["pid"] for e in merged["traceEvents"]]
        assert pids == [1, 101]
        assert merged["otherData"]["inputs"] == 2
        assert [o["run_id"] for o in merged["otherData"]["merged"]] == [
            "first", "second",
        ]

    def test_inputs_not_mutated(self):
        payload = self._trace(2, "only")
        merge_chrome_traces([payload, payload])
        assert payload["traceEvents"][0]["pid"] == 2

    def test_not_a_trace_raises(self):
        with pytest.raises(TelemetryError):
            merge_chrome_traces([{"otherData": {}}])

    def test_malformed_event_raises(self):
        with pytest.raises(TelemetryError):
            merge_chrome_traces([{"traceEvents": [{"name": "no pid"}]}])
