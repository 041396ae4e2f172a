"""Measure registry: the names jobs execute by.

A :class:`~repro.farm.jobs.Job` cannot carry a closure — jobs cross
process boundaries and live in an on-disk cache, so they name their
measure by a registered string instead.  A measure is a *module-level*
callable invoked as ``fn(seed=seed, **params)`` returning a
JSON-encodable value (almost always a float).

Measures ship with the library (:data:`BUILTIN_MEASURES`, resolved
lazily by import path so workers pay only for what they run) or are
registered at runtime with :func:`register` — handy for tests and ad-hoc
experiments.  Worker processes are forked/spawned from the scheduler, so
runtime registrations made at module import time are visible to them.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping

from repro.errors import FarmError

#: measure name -> "module:qualname" import path, for measures that ship
#: with the library
BUILTIN_MEASURES: dict[str, str] = {
    "trap.measure": "repro.farm.measures:trap_measure",
    "table7.measure": "repro.experiments.table7:measure_once",
    "table8.measure": "repro.experiments.table8:_measure",
    "table9.measure": "repro.experiments.table9:_measure",
    "chaos.probe": "repro.faults.infra:chaos_probe",
    "chaos.kill_probe": "repro.faults.infra:killable_probe",
    "sampling.interval": "repro.sampling.runner:interval_measure",
    "grid.sweep": "repro.caches.gridsweep:grid_measure",
}

#: runtime registrations, by name
_RUNTIME: dict[str, str] = {}


def register(name: str, target: Callable[..., Any] | str) -> None:
    """Register ``target`` (a module-level callable, or an import path
    string ``"module:qualname"``) under ``name``."""
    if callable(target):
        qualname = target.__qualname__
        if "<locals>" in qualname:
            raise FarmError(
                f"measure {name!r} must be module-level to run in workers, "
                f"got nested callable {qualname!r}"
            )
        target = f"{target.__module__}:{qualname}"
    _RUNTIME[name] = target


def registered_names() -> tuple[str, ...]:
    return tuple(sorted(BUILTIN_MEASURES | _RUNTIME))


def resolve(name: str) -> Callable[..., Any]:
    """Import and return the callable behind a measure name."""
    path = _RUNTIME.get(name) or BUILTIN_MEASURES.get(name)
    if path is None:
        raise FarmError(
            f"unknown measure {name!r}; registered: {', '.join(registered_names())}"
        )
    module_name, _, qualname = path.partition(":")
    try:
        module = importlib.import_module(module_name)
        target: Any = module
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise FarmError(f"measure {name!r} ({path}) failed to import: {exc}") from exc
    if not callable(target):
        raise FarmError(f"measure {name!r} ({path}) is not callable")
    return target


def execute_job(measure: str, params: Mapping[str, Any], seed: int) -> Any:
    """Run one job's measure.  This is the worker-side entry point."""
    return resolve(measure)(seed=seed, **params)


def timed_execute(
    measure: str, params: Mapping[str, Any], seed: int
) -> tuple[Any, float]:
    """``execute_job`` plus worker-side wall-clock seconds."""
    import time

    start = time.perf_counter()
    value = execute_job(measure, params, seed)
    return value, time.perf_counter() - start


#: worker-side timeline capacity per clock: a job ships at most this
#: many wall-clock spans home (its simulated-clock records never leave
#: the worker)
_WORKER_CAPACITY = 8_192


def instrumented_execute(
    ctx: Mapping[str, Any],
    measure: str,
    params: Mapping[str, Any],
    seed: int,
    transport: Any = None,
) -> tuple[Any, float, dict[str, Any]]:
    """Worker entry point with per-job telemetry capture.

    Activates a private :class:`~repro.telemetry.session.TelemetrySession`
    for the duration of one job (dropping any session inherited across
    ``fork`` from the master — see
    :func:`repro.telemetry.session.drop_inherited`), runs the measure
    exactly as :func:`timed_execute` / ``transported_execute`` would,
    then exports the session's wall-clock spans and metrics into a
    picklable envelope that rides home on the job result:

        ``(value, elapsed_secs, envelope)``

    ``ctx`` carries the master's correlation state: ``run_id`` (stamped
    on every span), ``job_key`` (the content hash this result caches
    under) and ``profile`` (whether the opt-in phase timers fire).
    ``value`` and ``elapsed`` are bit-identical to the uninstrumented
    path — the envelope is pure observation.
    """
    import os

    from repro.telemetry import session as telemetry_session
    from repro.telemetry.aggregate import export_metrics
    from repro.telemetry.spans import WALL_CLOCK

    run_id = str(ctx.get("run_id", ""))
    job_key = str(ctx.get("job_key", ""))
    if telemetry_session.active() is not None:
        telemetry_session.drop_inherited()
    job_session = telemetry_session.activate(
        telemetry_session.TelemetrySession(
            trace_capacity=_WORKER_CAPACITY,
            profile=bool(ctx.get("profile", False)),
            run_id=run_id or None,
        )
    )
    try:
        with job_session.spans.span(
            "worker.job",
            run_id=run_id,
            job_key=job_key,
            measure=measure,
            seed=seed,
        ):
            if transport is not None:
                from repro.streams.transport import transported_execute

                value, elapsed = transported_execute(
                    transport, measure, params, seed
                )
            else:
                value, elapsed = timed_execute(measure, params, seed)
    finally:
        telemetry_session.deactivate()
    envelope = {
        "v": 1,
        "worker_pid": os.getpid(),
        "run_id": run_id,
        "job_key": job_key,
        "spans": job_session.spans.to_dicts(),
        "dropped": job_session.spans.drops[WALL_CLOCK],
        "metrics": export_metrics(job_session.metrics),
    }
    return value, elapsed, envelope
