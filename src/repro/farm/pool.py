"""The farm scheduler: cache lookups, a process pool, retries.

:meth:`Farm.run_jobs` takes a batch of :class:`~repro.farm.jobs.Job`\\ s
and returns their values *in job order*, regardless of which worker
computed what when.  The contract is bit-for-bit equivalence with
running every job serially in-process:

* every job carries its own seed, so sharding cannot reorder randomness;
* results are reassembled by job index, so completion order is invisible;
* cached values round-trip through JSON, which is exact for floats.

Jobs found in the result cache are never executed.  Misses run either
in-process (``max_workers=1``, or when no process pool can be created —
restricted environments without ``fork``/semaphores) or on a
``ProcessPoolExecutor`` with deterministic submission order, a per-job
timeout, and bounded retry when a worker crashes mid-batch.
"""

from __future__ import annotations

import logging
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ConfigError, FarmError, PoisonedJobsError, TelemetryError
from repro.farm.cache import ResultCache
from repro.farm.jobs import CODE_VERSION, Job
from repro.farm.progress import FarmMetrics
from repro.farm.registry import instrumented_execute, timed_execute
from repro.faults.infra import WorkerFaults, faulted_execute
from repro.telemetry.session import active as _telemetry
from repro.telemetry.spans import span as _span

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle via keys
    from repro.farm.journal import JobJournal
    from repro.farm.supervisor import WorkerSupervisor
    from repro.streams.transport import StreamTransport

#: default location of the on-disk result store
DEFAULT_CACHE_DIR = Path(".farm-cache")


@dataclass(frozen=True)
class FarmConfig:
    """Scheduler knobs."""

    #: worker processes; 1 means in-process serial execution
    max_workers: int = 1
    #: consult/populate the on-disk result store
    use_cache: bool = True
    cache_dir: str | Path = DEFAULT_CACHE_DIR
    #: seconds the master waits per job before declaring it failed
    job_timeout: float | None = None
    #: extra scheduling attempts after a worker crash or timeout
    max_retries: int = 2
    #: code-version salt mixed into every job key
    salt: str = CODE_VERSION
    #: first retry delay in seconds; doubles each attempt
    backoff_base: float = 0.05
    #: ceiling on any single retry delay
    backoff_max: float = 2.0
    #: jitter fraction added on top of the exponential delay (seeded)
    backoff_jitter: float = 0.25
    #: seed for the jitter stream, so retry timing replays exactly
    backoff_seed: int = 0
    #: consecutive no-progress pool failures before the circuit breaker
    #: degrades the rest of the batch to in-process serial execution
    #: (0 disables; must be <= max_retries to ever engage, since retry
    #: exhaustion raises first)
    breaker_threshold: int = 0
    #: worker-fault schedule injected by chaos runs (None = no faults)
    worker_faults: WorkerFaults | None = None
    #: compiled-stream handle shipped to every pool worker (None = each
    #: worker regenerates its streams); see :mod:`repro.streams.transport`.
    #: Fault-injected submissions ignore it — chaos paths measure the
    #: retry machinery, not stream delivery.
    stream_transport: StreamTransport | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ConfigError(
                f"max_workers must be at least 1, got {self.max_workers}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigError(
                f"job_timeout must be positive, got {self.job_timeout}"
            )
        if self.backoff_base < 0:
            raise ConfigError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if self.backoff_max < self.backoff_base:
            raise ConfigError(
                f"backoff_max ({self.backoff_max}) must be >= "
                f"backoff_base ({self.backoff_base})"
            )
        if self.backoff_jitter < 0:
            raise ConfigError(
                f"backoff_jitter must be non-negative, got {self.backoff_jitter}"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                f"breaker_threshold must be non-negative, "
                f"got {self.breaker_threshold}"
            )

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before retry ``attempt`` (1-based):
        exponential with a seeded jitter fraction, capped."""
        base = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        return round(base * (1.0 + self.backoff_jitter * rng.random()), 6)


class _PoolUnavailable(Exception):
    """Process pools cannot be created in this environment."""


class Farm:
    """Executes job batches against a shared result cache."""

    def __init__(self, config: FarmConfig | None = None) -> None:
        self.config = config or FarmConfig()
        self.cache = ResultCache(
            self.config.cache_dir, enabled=self.config.use_cache
        )
        #: cumulative metrics across every ``run_jobs`` call on this farm
        self.metrics = FarmMetrics(workers=self.config.max_workers)
        #: metrics of the most recent ``run_jobs`` call
        self.last_run: FarmMetrics | None = None
        #: optional service-plane attachments (set by the farm service):
        #: a write-ahead job journal and a worker supervisor.  Both
        #: default to None, leaving plain batch behavior untouched.
        self.journal: JobJournal | None = None
        self.supervisor: WorkerSupervisor | None = None
        #: label journaled batches carry (set by the service per ticket)
        self.batch_label = ""
        self.client_id = ""
        self._telemetry_drop_logged = False
        self._epochs: dict[int, int] = {}
        self._poisoned: dict[str, dict[str, Any]] = {}

    # -- public surface

    def run_jobs(self, jobs: Sequence[Job]) -> list[Any]:
        """Return each job's value, in job order."""
        run = FarmMetrics(workers=self.config.max_workers)
        run.jobs = len(jobs)
        corrupt_before = self.cache.corrupt
        strikes_before = (
            self.supervisor.strikes if self.supervisor is not None else 0
        )
        journal_before = (
            self.journal.tally() if self.journal is not None else (0, 0)
        )
        start = time.perf_counter()
        session = _telemetry()

        batch_span = (
            session.spans.span(
                "farm.batch",
                run_id=session.run_id,
                jobs=len(jobs),
                workers=self.config.max_workers,
            )
            if session is not None
            else nullcontext()
        )
        with batch_span:
            results: list[Any] = [None] * len(jobs)
            keys = [job.key(self.config.salt) for job in jobs]
            pending: dict[int, Job] = {}
            self._epochs = {}
            self._poisoned = {}
            if self.journal is not None:
                # write-ahead: the whole batch is durable before any
                # job runs, so a SIGKILL at any later instant leaves a
                # journal that names exactly the unfinished work
                self.journal.queue(
                    zip(jobs, keys),
                    batch=self.batch_label,
                    client=self.client_id,
                )
            for index, (job, key) in enumerate(zip(jobs, keys)):
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = value
                    run.cache_hits += 1
                    if self.journal is not None:
                        self.journal.reconcile(key)
                    if session is not None:
                        session.spans.farm_event(
                            "cache_hit", measure=job.measure, seed=job.seed
                        )
                else:
                    pending[index] = job

            try:
                if pending:
                    if self.config.max_workers == 1:
                        self._run_serial(pending, keys, results, run)
                    else:
                        try:
                            self._run_pool(pending, keys, results, run)
                        except _PoolUnavailable:
                            run.fallback_serial = True
                            self._run_serial(pending, keys, results, run)
            finally:
                # a batch that raises (retries exhausted, a measure's
                # own exception) still accounts for the work it did
                run.wall_clock_secs = time.perf_counter() - start
                run.cache_corrupt = self.cache.corrupt - corrupt_before
                run.poisoned = len(self._poisoned)
                self.last_run = run
                self.metrics.merge(run)
                self.cache.record_run(run.summary())
                if session is not None:
                    run.publish(session.metrics)
                    if self.supervisor is not None:
                        self.supervisor.publish(
                            session.metrics, strikes_before
                        )
                    if self.journal is not None:
                        self.journal.publish(session.metrics, journal_before)
        if self._poisoned:
            # everything healthy finished (and is cached/journaled);
            # report the quarantined stragglers with their reasons
            raise PoisonedJobsError(
                f"{len(self._poisoned)} job(s) poisoned "
                f"(quarantined after striking distinct workers); "
                f"{run.cache_hits + run.executed} of {run.jobs} completed",
                poisoned=dict(self._poisoned),
                results=results,
            )
        return results

    # -- execution strategies

    def _store(
        self,
        index: int,
        job: Job,
        key: str,
        value: Any,
        elapsed: float,
        results: list[Any],
        run: FarmMetrics,
    ) -> None:
        results[index] = value
        run.record_execution(elapsed)
        session = _telemetry()
        if session is not None:
            session.spans.farm_event(
                "job", dur_secs=elapsed, measure=job.measure, seed=job.seed
            )
        with _span(
            "farm.cache_write", job_key=key[:12], measure=job.measure
        ):
            self.cache.put(
                key, value, measure=job.measure, seed=job.seed, elapsed=elapsed
            )
        if self.journal is not None:
            # commit strictly *after* the cache write: a crash in the
            # window leaves a leased job whose value is already durable,
            # which resume reconciles without re-executing (exactly-once
            # observable effect)
            epoch = self._epochs.get(index)
            if epoch is not None:
                self.journal.commit(key, epoch)
            else:
                self.journal.reconcile(key)

    def _run_serial(
        self,
        pending: dict[int, Job],
        keys: list[str],
        results: list[Any],
        run: FarmMetrics,
    ) -> None:
        for index in sorted(pending):
            job = pending[index]
            if self.journal is not None:
                self._epochs[index] = self.journal.lease(keys[index])
            with _span(
                "farm.job",
                job_key=keys[index][:12],
                measure=job.measure,
                seed=job.seed,
            ):
                try:
                    value, elapsed = timed_execute(
                        job.measure, dict(job.params), job.seed
                    )
                except Exception as exc:
                    if self.journal is not None:
                        self.journal.fail(
                            keys[index],
                            self._epochs.get(index, 0),
                            {"code": "execute_error", "error": repr(exc)},
                        )
                    raise
            self._store(index, job, keys[index], value, elapsed, results, run)
        pending.clear()

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        index: int,
        job: Job,
        key: str,
        attempt: int,
    ) -> Future:
        faults = self.config.worker_faults
        if faults is not None:
            return pool.submit(
                faulted_execute,
                faults.action_for(index, attempt),
                faults.hang_secs,
                job.measure,
                dict(job.params),
                job.seed,
            )
        transport = self._current_transport()
        session = _telemetry()
        if session is not None:
            # capture the worker's spans and metrics in the job result;
            # the transport (if any) composes underneath
            ctx = {
                "run_id": session.run_id,
                "job_key": key,
                "profile": session.profile,
            }
            return pool.submit(
                instrumented_execute,
                ctx,
                job.measure,
                dict(job.params),
                job.seed,
                transport,
            )
        if transport is not None:
            from repro.streams.transport import transported_execute

            return pool.submit(
                transported_execute,
                transport,
                job.measure,
                dict(job.params),
                job.seed,
            )
        return pool.submit(
            timed_execute, job.measure, dict(job.params), job.seed
        )

    def _absorb_envelope(self, envelope: Any) -> None:
        """Fold one worker's telemetry envelope into the master session.

        An envelope the master cannot merge is a bug somewhere — fail
        loudly (one log line per farm, a ``farm.telemetry_dropped``
        counter per occurrence) instead of discarding it silently.
        """
        session = _telemetry()
        if session is None or envelope is None:
            return
        try:
            session.absorb_worker_envelope(envelope)
        except TelemetryError as exc:
            session.metrics.counter("farm.telemetry_dropped").inc()
            if not self._telemetry_drop_logged:
                self._telemetry_drop_logged = True
                logger.warning(
                    "worker result carried telemetry the master could not "
                    "merge (%s); counting under farm.telemetry_dropped", exc,
                )

    def _current_transport(self) -> StreamTransport | None:
        """The transport workers should use for this batch.

        Re-derived from the active stream session when there is one, so
        prefixes the master grew *after* the farm was configured — e.g.
        by profiling a stream — still reach the workers as shared
        memory segments.  Falls back to the configured snapshot.
        """
        if self.config.stream_transport is None:
            return None
        from repro.streams.session import active as _stream_session

        session = _stream_session()
        if session is not None:
            return session.transport()
        return self.config.stream_transport

    def _trip_breaker(
        self,
        pending: dict[int, Job],
        keys: list[str],
        results: list[Any],
        run: FarmMetrics,
    ) -> None:
        """Degrade the rest of the batch to in-process serial execution.

        Sound because jobs themselves are deterministic and the
        failures being counted are *pool-level* (workers dying, jobs
        never returning) — executing in the master sidesteps the pool
        entirely.  Worker-fault schedules never apply on this path.
        """
        run.breaker_tripped = True
        run.fallback_serial = True
        session = _telemetry()
        if session is not None:
            session.spans.farm_event("breaker_open", pending=len(pending))
        self._run_serial(pending, keys, results, run)

    def _run_pool(
        self,
        pending: dict[int, Job],
        keys: list[str],
        results: list[Any],
        run: FarmMetrics,
    ) -> None:
        config = self.config
        attempts = 0
        consecutive_failures = 0
        jitter_rng = random.Random(config.backoff_seed)
        while pending:
            if (
                config.breaker_threshold
                and consecutive_failures >= config.breaker_threshold
            ):
                self._trip_breaker(pending, keys, results, run)
                return
            if self.journal is not None:
                # fresh lease epochs every round: a commit surfacing
                # from a previous (presumed-dead) round is fenced out
                for index in sorted(pending):
                    self._epochs[index] = self.journal.lease(keys[index])
            pool = self._make_pool(len(pending))
            futures: dict[int, Future] = {}
            progressed = False
            culprit: int | None = None
            try:
                # deterministic sharding: jobs enter the queue in index
                # (and therefore seed) order on every attempt
                with _span("farm.submit", jobs=len(pending), attempt=attempts):
                    for index in sorted(pending):
                        futures[index] = self._submit(
                            pool, index, pending[index], keys[index], attempts
                        )
                for index, future in futures.items():
                    culprit = index
                    with _span(
                        "farm.result", job_key=keys[index][:12]
                    ):
                        result = future.result(timeout=config.job_timeout)
                    value, elapsed = result[0], result[1]
                    self._store(
                        index, pending[index], keys[index], value, elapsed,
                        results, run,
                    )
                    if len(result) > 2:
                        self._absorb_envelope(result[2])
                    del pending[index]
                    progressed = True
                pool.shutdown(wait=True)
            except (BrokenProcessPool, FutureTimeoutError) as exc:
                # a worker died (or a job hung): drop the poisoned pool
                # without waiting on it, then back off and retry what's
                # still pending
                pool.shutdown(wait=False, cancel_futures=True)
                attempts += 1
                consecutive_failures = (
                    1 if progressed else consecutive_failures + 1
                )
                delay = config.backoff_delay(attempts, jitter_rng)
                run.record_retry(attempts, delay)
                if self.supervisor is not None:
                    self._supervise_failure(
                        exc, culprit, pending, keys, attempts
                    )
                session = _telemetry()
                if session is not None:
                    session.spans.farm_event(
                        "retry",
                        attempt=attempts,
                        backoff_secs=delay,
                        pending=len(pending),
                        error=type(exc).__name__,
                    )
                if not pending:
                    return  # the only survivors were poisoned away
                if attempts > config.max_retries:
                    if self.journal is not None:
                        for i in sorted(pending):
                            self.journal.fail(
                                keys[i],
                                self._epochs.get(i, 0),
                                {
                                    "code": "retries_exhausted",
                                    "attempts": attempts,
                                    "error": repr(exc),
                                },
                            )
                    failed = ", ".join(
                        f"{pending[i].measure}(seed={pending[i].seed})"
                        for i in sorted(pending)
                    )
                    raise FarmError(
                        f"{len(pending)} job(s) still failing after "
                        f"{attempts} attempt(s) [{failed}]: {exc!r}"
                    ) from exc
                time.sleep(delay)

    def _supervise_failure(
        self,
        exc: Exception,
        culprit: int | None,
        pending: dict[int, Job],
        keys: list[str],
        attempts: int,
    ) -> None:
        """Strike the culprit job; poison it if it keeps killing workers."""
        supervisor = self.supervisor
        assert supervisor is not None
        kind = (
            "deadline"
            if isinstance(exc, FutureTimeoutError)
            else "worker_crash"
        )
        if culprit is not None and culprit in pending:
            reason = supervisor.record_strike(
                keys[culprit], kind, repr(exc), generation=attempts
            )
            if reason is not None:
                if self.journal is not None:
                    self.journal.poison(
                        keys[culprit],
                        self._epochs.get(culprit, 0),
                        reason,
                    )
                self._poisoned[keys[culprit]] = reason
                del pending[culprit]
                session = _telemetry()
                if session is not None:
                    session.spans.farm_event(
                        "poisoned",
                        job_key=keys[culprit][:12],
                        strikes=len(reason["strikes"]),
                    )

    def _make_pool(self, n_pending: int) -> ProcessPoolExecutor:
        workers = min(self.config.max_workers, n_pending)
        try:
            return ProcessPoolExecutor(max_workers=workers)
        except (ImportError, NotImplementedError, OSError, ValueError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
