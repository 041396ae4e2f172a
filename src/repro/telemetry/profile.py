"""Opt-in phase timers for the simulator's hot paths.

:func:`phase` wraps a named region — grouped-set replay, a dm pass, a
TLB chunk, a trap-rescan index build, a batched trap delivery, a blob
map, a snapshot fork, a boundary warm — and, when profiling is enabled on the active telemetry
session, publishes the wall-clock duration into a ``profile.<name>``
histogram *and* records a span, so the same instant shows up in both
the metrics report and the merged Chrome trace.

Off is the default, and off means *off*: with no active session, or a
session whose ``profile`` flag is false, :func:`phase` returns a shared
null context manager — no timer read, no allocation beyond the dict
lookup for the flag.  Simulated state is never touched either way, so
reports are bit-identical with profiling on or off (pinned by
``tests/telemetry/test_profile.py``).

Phases sit at chunk/structure granularity, never per-reference: the
PR 3 kernels process thousands of references per ``simulate_chunk``
call, so the timer overhead amortizes to noise even when enabled.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from typing import Any

#: histogram bounds for phase wall-clock seconds — finer than the
#: farm's job-latency buckets because phases run micro- to milliseconds
PROFILE_BUCKET_SECS = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005,
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

#: the canonical phase names wired through the codebase, for docs and
#: the CLI's ``telemetry top`` view
KNOWN_PHASES = (
    "kernels.grouped_set",
    "kernels.dm_pass",
    "kernels.tlb_chunk",
    "kernels.pipeline.compose",
    "machine.rescan_index",
    "machine.trap_batch",
    "streams.blob_map",
    "streams.snapshot_fork",
    "sampling.boundary_warm",
)


class _NullPhase(AbstractContextManager):
    """Shared do-nothing context for the profiling-off path."""

    __slots__ = ()

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _PhaseTimer(AbstractContextManager):
    """One live phase: times the region, publishes on exit."""

    __slots__ = ("_session", "_name", "_labels", "_span_cm", "_start")

    def __init__(self, session, name: str, labels: dict[str, str]) -> None:
        self._session = session
        self._name = name
        self._labels = labels
        self._span_cm = session.spans.span(f"profile.{name}", **labels)
        self._span_cm.__enter__()
        self._start = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._start
        self._span_cm.__exit__(*exc)
        self._session.metrics.histogram(
            f"profile.{self._name}", bounds=PROFILE_BUCKET_SECS, **self._labels
        ).observe(elapsed)
        return None


def profiling_enabled() -> bool:
    """True when an active telemetry session has profiling switched on."""
    from repro.telemetry.session import active

    session = active()
    return session is not None and session.profile


def phase(name: str, **labels: str) -> AbstractContextManager:
    """Time a named region if profiling is on; otherwise do nothing.

    Usage on a hot path::

        with phase("kernels.tlb_chunk"):
            ...chunk work...

    The off path costs one session lookup and returns a shared null
    context — cheap enough to leave in chunk-granularity code
    unconditionally.
    """
    from repro.telemetry.session import active

    session = active()
    if session is None or not session.profile:
        return _NULL_PHASE
    return _PhaseTimer(session, name, dict(labels))


__all__ = [
    "KNOWN_PHASES",
    "PROFILE_BUCKET_SECS",
    "phase",
    "profiling_enabled",
]
