"""The timeline recorder: one bounded store of timed records, two clocks.

Every timeline record of a run is a :class:`Span` in one
:class:`SpanRecorder`, and each carries its clock and display lane.
``sim`` records — trap deliveries, page faults, clock ticks — are
stamped in simulated microseconds of the 25 MHz DECstation; ``wall``
records — nested spans, the farm's job lifecycle, the spans farm
workers ship home — in wall-clock microseconds since the recorder was
created.  A slot is claimed when a record is *entered*, so past the
bound the latest, deepest records drop and the roots of the span tree
survive.  The bound applies to each clock separately, so a trap storm
cannot crowd out the spans around it, and every refusal counts in one
``dropped`` total.

Workers serialize their wall-clock spans (:meth:`SpanRecorder.to_dicts`)
into the job-result envelope; :meth:`SpanRecorder.absorb` files them on
one lane per worker, renumbered from the master's ids and shifted onto
its clock.  :func:`merged_chrome_trace` renders the whole timeline as
one Chrome ``trace_event`` file.  Nothing in the simulation ever reads
a record.
"""

from __future__ import annotations

import itertools
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro._types import HOST_CLOCK_HZ
from repro.errors import TelemetryError

#: record clocks: simulated microseconds, or wall-clock microseconds
#: since the recorder was created
SIM_CLOCK = "sim"
WALL_CLOCK = "wall"

#: simulated cycles per simulated microsecond (25 MHz host)
CYCLES_PER_US = HOST_CLOCK_HZ / 1_000_000

#: default bound per clock; at ~250 cycles per trap this covers runs of
#: tens of millions of references
DEFAULT_TRACE_CAPACITY = 65_536

#: Chrome-trace process ids: simulated machine, farm master, farm workers
MACHINE_PID = 1
FARM_PID = 2
WORKER_PID = 3

#: lane of the recorder's own nested spans
SPAN_LANE = "master spans"
#: lane of the farm's job lifecycle records
JOBS_LANE = "jobs"
#: prefix of the one lane each farm worker's absorbed spans land on
WORKER_LANE = "worker "

_PROCESS_NAMES = {
    MACHINE_PID: "simulated machine",
    FARM_PID: "execution farm",
    WORKER_PID: "farm workers",
}

#: Chrome category of the simulated-clock records that are not traps
_SIM_CATEGORIES = {"page_fault": "fault", "clock_tick": "clock"}


def new_run_id() -> str:
    """A fresh correlation id for one run (master + all its workers)."""
    return uuid.uuid4().hex[:12]


@dataclass
class Span:
    """One timed record.  A region's ``dur_us`` is filled when it closes."""

    name: str
    span_id: int
    parent_id: int | None
    start_us: float
    dur_us: float = 0.0
    args: dict[str, Any] | None = None
    clock: str = WALL_CLOCK
    lane: str = SPAN_LANE

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_us": round(self.start_us, 3),
            "dur_us": round(self.dur_us, 3),
        }
        if self.args:
            record["args"] = dict(self.args)
        return record


def span_from_dict(record: Mapping[str, Any]) -> Span:
    """Re-hydrate one serialized span; raises on malformed records."""
    try:
        return Span(
            name=str(record["name"]),
            span_id=int(record["id"]),
            parent_id=None if record["parent"] is None else int(record["parent"]),
            start_us=float(record["start_us"]),
            dur_us=float(record["dur_us"]),
            args=dict(record["args"]) if record.get("args") else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TelemetryError(f"malformed span record {record!r}: {exc}") from exc


def spans_from_dicts(records: Sequence[Mapping[str, Any]]) -> list[Span]:
    return [span_from_dict(record) for record in records]


class SpanRecorder:
    """Bounded in-order store of timeline records, per-clock capacity.

    Spans nest lexically: :meth:`span` pushes itself as the parent of
    anything opened inside it.  Slots are claimed on *entry*, so when a
    clock's bound is hit it is the latest, deepest records that drop.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise TelemetryError(
                f"trace capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        #: retained records of both clocks, in the order they were entered
        self.spans: list[Span] = []
        #: records refused by the bound, per clock
        self.drops = {SIM_CLOCK: 0, WALL_CLOCK: 0}
        self._free = {SIM_CLOCK: capacity, WALL_CLOCK: capacity}
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def dropped(self) -> int:
        """Records lost to the bound, both clocks."""
        return self.drops[SIM_CLOCK] + self.drops[WALL_CLOCK]

    def now_us(self) -> float:
        """Microseconds since this recorder was created (monotonic)."""
        return (time.perf_counter() - self._epoch) * 1e6

    def records(self, clock: str) -> list[Span]:
        """Retained records on one clock, in the order they were entered."""
        return [record for record in self.spans if record.clock == clock]

    def _claim(self, clock: str) -> int | None:
        """A fresh id if ``clock`` has a free slot; else count the drop."""
        if not self._free[clock]:
            self.drops[clock] += 1
            return None
        self._free[clock] -= 1
        return next(self._ids)

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span | None]:
        """Open a wall-clock region; yields the span (None past capacity)."""
        span_id = self._claim(WALL_CLOCK)
        if span_id is None:
            yield None
            return
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=self._stack[-1] if self._stack else None,
            start_us=self.now_us(),
            args=dict(args) if args else None,
        )
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record.dur_us = self.now_us() - record.start_us
            self._stack.pop()

    def record(
        self,
        name: str,
        start_us: float,
        dur_us: float = 0.0,
        *,
        clock: str = WALL_CLOCK,
        lane: str = SPAN_LANE,
        args: dict[str, Any] | None = None,
    ) -> Span | None:
        """File one already-timed, unnested record (None past capacity)."""
        span_id = self._claim(clock)
        if span_id is None:
            return None
        record = Span(name, span_id, None, start_us, dur_us, args, clock, lane)
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    # emitters for the standard instrumentation points
    # ------------------------------------------------------------------

    def trap(self, frame, handler_cycles: int) -> None:
        """One kernel trap delivery (called by the trap dispatcher)."""
        self.record(
            frame.kind.value,
            frame.cycle / CYCLES_PER_US,
            handler_cycles / CYCLES_PER_US,
            clock=SIM_CLOCK,
            lane=frame.component.value,
            args={
                "tid": frame.tid,
                "va": frame.va,
                "pa": frame.pa,
                "cycle": frame.cycle,
                "handler_cycles": handler_cycles,
            },
        )

    def page_fault(self, cycle: int, component, tid: int, vpn: int) -> None:
        self.record(
            "page_fault",
            cycle / CYCLES_PER_US,
            clock=SIM_CLOCK,
            lane=component.value,
            args={"tid": tid, "vpn": vpn, "cycle": cycle},
        )

    def clock_ticks(self, cycle: int, ticks: int) -> None:
        self.record(
            "clock_tick",
            cycle / CYCLES_PER_US,
            clock=SIM_CLOCK,
            lane="clock",
            args={"ticks": ticks, "cycle": cycle},
        )

    def farm_event(self, kind: str, dur_secs: float = 0.0, **args: Any) -> None:
        """One farm job lifecycle record ("job", "cache_hit", "retry",
        ...) on the jobs lane, ending now."""
        dur_us = dur_secs * 1e6
        self.record(
            kind, self.now_us() - dur_us, dur_us, lane=JOBS_LANE, args=args or None
        )

    # ------------------------------------------------------------------
    # crossing the farm's process boundary
    # ------------------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialized wall-clock spans, ready for the worker result
        envelope; simulated-clock records never leave the process."""
        return [record.to_dict() for record in self.records(WALL_CLOCK)]

    def absorb(self, spans: Sequence[Span], worker: int, dropped: int = 0) -> None:
        """File one worker job's spans on that worker's lane.

        The spans are shifted so the last of them ends now (the worker
        finished before its result reached the master), renumbered from
        this recorder's id sequence, and bounded by its wall-clock
        capacity; ``dropped`` is what the worker's own bound refused.
        """
        self.drops[WALL_CLOCK] += dropped
        if not spans:
            return
        shift_us = self.now_us() - max(s.start_us + s.dur_us for s in spans)
        lane = f"{WORKER_LANE}{worker}"
        ids: dict[int, int] = {}
        for span_ in spans:
            span_id = self._claim(WALL_CLOCK)
            if span_id is None:
                continue
            ids[span_.span_id] = span_id
            self.spans.append(
                Span(
                    name=span_.name,
                    span_id=span_id,
                    parent_id=ids.get(span_.parent_id),
                    start_us=span_.start_us + shift_us,
                    dur_us=span_.dur_us,
                    args={**(span_.args or {}), "worker": worker},
                    lane=lane,
                )
            )


@contextmanager
def span(name: str, **args: Any) -> Iterator[Span | None]:
    """Record a span on the active telemetry session (no-op without one)."""
    from repro.telemetry.session import active

    session = active()
    if session is None:
        yield None
        return
    with session.spans.span(name, **args) as record:
        yield record


# ---------------------------------------------------------------------------
# Chrome trace_event rendering and merging
# ---------------------------------------------------------------------------


def chrome_span_events(
    spans: Sequence[Span],
    pid: int,
    tid: int,
    shift_us: float = 0.0,
    **extra_args: Any,
) -> list[dict[str, Any]]:
    """Spans as complete ("X") Chrome events on one pid/tid lane."""
    events = []
    for record in spans:
        args: dict[str, Any] = {
            "span_id": record.span_id,
            "parent_id": record.parent_id,
        }
        if extra_args:
            args.update(extra_args)
        if record.args:
            args.update(record.args)
        events.append(
            {
                "name": record.name,
                "cat": "span",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": record.start_us + shift_us,
                "dur": max(record.dur_us, 0.001),
                "args": args,
            }
        )
    return events


def _placement(record: Span) -> tuple[int, str]:
    """The Chrome process and category one record renders under."""
    if record.clock == SIM_CLOCK:
        return MACHINE_PID, _SIM_CATEGORIES.get(record.name, "trap")
    if record.lane == JOBS_LANE:
        return FARM_PID, "farm"
    if record.lane.startswith(WORKER_LANE):
        return WORKER_PID, "span"
    return FARM_PID, "span"


def _metadata(kind: str, pid: int, tid: int, name: str) -> dict[str, Any]:
    """A ``process_name`` / ``thread_name`` metadata event."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def _point_event(
    record: Span, pid: int, tid: int, category: str
) -> dict[str, Any]:
    """A machine or farm record: complete ("X") when it has a duration,
    a thread-scoped instant ("i") otherwise."""
    event: dict[str, Any] = {
        "name": record.name,
        "cat": category,
        "pid": pid,
        "tid": tid,
        "ts": record.start_us,
    }
    if record.dur_us > 0:
        event["ph"] = "X"
        event["dur"] = record.dur_us
    else:
        event["ph"] = "i"
        event["s"] = "t"
    if record.args:
        event["args"] = dict(record.args)
    return event


def merged_chrome_trace(session) -> dict[str, Any]:
    """A session's whole timeline as one Chrome ``trace_event`` object.

    One process for the simulated machine (a lane per component, plus
    the clock), one for the farm master (the jobs lane and the master's
    span lane) and one for the farm workers (a lane per worker pid), so
    ``reproduce --jobs N --trace-out`` shows scheduler, workers and
    simulated machine side by side.
    """
    recorder = session.spans
    events: list[dict[str, Any]] = []
    lanes: dict[tuple[int, str], int] = {}
    for record in recorder.spans:
        pid, category = _placement(record)
        tid = lanes.get((pid, record.lane))
        if tid is None:
            if all(known != pid for known, _ in lanes):
                events.append(
                    _metadata("process_name", pid, 0, _PROCESS_NAMES[pid])
                )
            tid = lanes[(pid, record.lane)] = len(lanes) + 1
            events.append(_metadata("thread_name", pid, tid, record.lane))
        if category == "span":
            events.extend(
                chrome_span_events((record,), pid, tid, run_id=session.run_id)
            )
        else:
            events.append(_point_event(record, pid, tid, category))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": session.run_id,
            "capacity": recorder.capacity,
            "dropped": recorder.dropped,
            "worker_lanes": sum(1 for pid, _ in lanes if pid == WORKER_PID),
        },
    }


def merge_chrome_traces(
    payloads: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Merge several Chrome trace files into one, lanes kept apart.

    Every input's pids are remapped into a disjoint block (input ``i``
    gets ``i * 100 + original_pid``), so two runs' "simulated machine"
    processes appear side by side instead of interleaved.  ``otherData``
    keeps each input's metadata under ``merged[i]``.
    """
    merged_events: list[dict[str, Any]] = []
    merged_other: list[Any] = []
    for i, payload in enumerate(payloads):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise TelemetryError(
                f"input {i} is not a Chrome trace (no traceEvents array)"
            )
        for event in events:
            if not isinstance(event, Mapping) or "pid" not in event:
                raise TelemetryError(
                    f"input {i} has a malformed trace event: {event!r}"
                )
            shifted = dict(event)
            shifted["pid"] = i * 100 + int(event["pid"])
            merged_events.append(shifted)
        merged_other.append(payload.get("otherData", {}))
    return {
        "traceEvents": merged_events,
        "displayTimeUnit": "ms",
        "otherData": {"merged": merged_other, "inputs": len(payloads)},
    }


__all__ = [
    "CYCLES_PER_US",
    "DEFAULT_TRACE_CAPACITY",
    "FARM_PID",
    "JOBS_LANE",
    "MACHINE_PID",
    "SIM_CLOCK",
    "WALL_CLOCK",
    "WORKER_PID",
    "Span",
    "SpanRecorder",
    "chrome_span_events",
    "merge_chrome_traces",
    "merged_chrome_trace",
    "new_run_id",
    "span",
    "span_from_dict",
    "spans_from_dicts",
]
