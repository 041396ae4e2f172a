"""The process-wide telemetry session — the zero-cost-when-disabled gate.

Instrumentation points throughout the machine, kernel, Tapeworm and
farm all read one module-level slot::

    session = active()
    if session is not None:
        session.spans.trap(frame, cycles)

With no session activated (the default, and the state every test and
benchmark runs in unless it opts in) that is a single global load and a
``None`` check — and crucially, *nothing* in the simulation ever reads
telemetry state, so results are bit-identical with telemetry on or off.
``tests/telemetry/test_unobtrusive.py`` pins that property.

Sessions are per-process.  Farm *workers* get a short-lived private
session per job (see :func:`repro.farm.registry.instrumented_execute`)
whose spans and metrics travel home in the job-result envelope; the
master absorbs them via :meth:`TelemetrySession.absorb_worker_envelope`
so one session ends a batch holding the whole distributed run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import TelemetryError
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import (
    DEFAULT_TRACE_CAPACITY,
    SpanRecorder,
    new_run_id,
    spans_from_dicts,
)


class TelemetrySession:
    """One run's worth of observability state: metrics + one timeline.

    ``trace_capacity`` bounds the timeline recorder per clock.
    ``profile`` switches the opt-in phase timers on
    (:mod:`repro.telemetry.profile`); it defaults to off so enabling
    telemetry alone never adds timers to kernel hot paths.
    """

    def __init__(
        self,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        profile: bool = False,
        run_id: str | None = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(trace_capacity)
        self.profile = profile
        self.run_id = run_id or new_run_id()
        self._dropped_published = 0

    def absorb_worker_envelope(self, envelope: Mapping[str, Any]) -> None:
        """Fold one worker's job-result telemetry into this session.

        Metrics land under ``farm.worker.*`` (cardinality-capped, drops
        counted); spans land on the worker's lane of this session's
        timeline (:meth:`SpanRecorder.absorb`).  Raises
        :class:`~repro.errors.TelemetryError` on envelopes this code
        cannot merge — the farm decides how loudly to fail.
        """
        from repro.telemetry.aggregate import fold_into

        if not isinstance(envelope, Mapping) or envelope.get("v") != 1:
            raise TelemetryError(
                f"unrecognized worker telemetry envelope: {envelope!r}"
            )
        started = time.perf_counter()
        merged, overflow = fold_into(self.metrics, envelope["metrics"])
        if overflow:
            self.metrics.counter("farm.telemetry.series_dropped").inc(overflow)
        self.spans.absorb(
            spans_from_dicts(envelope.get("spans", ())),
            worker=int(envelope.get("worker_pid", 0)),
            dropped=int(envelope.get("dropped", 0)),
        )
        # the aggregation layer observes itself: how many envelopes,
        # how much wall-clock the folding cost the master
        self.metrics.counter("farm.telemetry.envelopes").inc()
        self.metrics.counter("farm.telemetry.series_merged").inc(merged)
        self.metrics.counter("farm.telemetry.aggregation_secs").inc(
            time.perf_counter() - started
        )

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot, timeline drops included.

        The recorder's drops since the last call are published into the
        ``telemetry.dropped`` counter first, so every snapshot — each
        manifest's, the ``--metrics-out`` file's — says how much of the
        timeline was lost, and calling it again never double-counts.
        """
        dropped = self.spans.dropped
        self.metrics.counter("telemetry.dropped").inc(
            dropped - self._dropped_published
        )
        self._dropped_published = dropped
        return self.metrics.snapshot()


_active: TelemetrySession | None = None


def active() -> TelemetrySession | None:
    """The currently activated session, or None (telemetry disabled)."""
    return _active


def activate(session: TelemetrySession | None = None) -> TelemetrySession:
    """Install ``session`` (or a fresh one) as the process-wide session."""
    global _active
    if _active is not None:
        raise TelemetryError("a telemetry session is already active")
    _active = session or TelemetrySession()
    return _active


def deactivate() -> TelemetrySession:
    """Remove and return the active session."""
    global _active
    if _active is None:
        raise TelemetryError("no telemetry session is active")
    session, _active = _active, None
    return session


def drop_inherited() -> None:
    """Forget a session inherited across ``fork`` without touching it.

    A forked farm worker starts with a copy of the master's active
    session; recording into it would be silently lost (the copy never
    travels home) and deactivating it would be a lie (the master owns
    the original).  Workers call this before activating their own
    per-job session.
    """
    global _active
    _active = None


@contextmanager
def enabled(
    trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    profile: bool = False,
) -> Iterator[TelemetrySession]:
    """Scope a telemetry session over a block of simulation work."""
    session = activate(TelemetrySession(trace_capacity, profile=profile))
    try:
        yield session
    finally:
        deactivate()
