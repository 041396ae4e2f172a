"""The supervised farm service: journal + supervisor + GC.

:class:`FarmService` is the long-running form of the PR 1 farm — the
ROADMAP's "serve heavy traffic" promotion.  It composes three
service-plane pieces around one :class:`~repro.farm.pool.Farm`:

* every submitted batch is journaled (:mod:`repro.farm.journal`)
  *before* it runs, so a SIGKILL at any instant is recoverable:
  :meth:`FarmService.resume` replays exactly the unfinished work through
  the same farm, reconciling jobs whose values already reached the
  result cache rather than re-executing them (exactly-once observable
  effect);
* the pool runs under a :class:`~repro.farm.supervisor.WorkerSupervisor`,
  which attributes worker crashes and deadline overruns to jobs and
  quarantines the ones that keep killing workers;
* the cache tiers are held under a byte budget by
  :class:`~repro.farm.gc.CacheGC`, with journal leases pinning
  in-flight entries.

Retries, back-off, the per-job deadline and the degrade-to-serial
circuit breaker are the farm's own (:class:`FarmConfig`).

The service is single-threaded: ``submit`` queues, ``drain`` runs the
queue in submit order.  That mirrors the paper's reality — one master
schedules everything — and keeps every run bit-reproducible; "service"
here means surviving crashes and bad jobs across a long life, not
threads.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import FarmError, PoisonedJobsError
from repro.farm.gc import CacheGC
from repro.farm.jobs import Job
from repro.farm.journal import JobJournal, JournalEntry
from repro.farm.pool import Farm, FarmConfig
from repro.farm.supervisor import SupervisorConfig, WorkerSupervisor
from repro.telemetry.session import active as _telemetry
from repro.telemetry.spans import span as _span

logger = logging.getLogger(__name__)


@dataclass
class Ticket:
    """One client batch moving through the service."""

    ticket_id: int
    client: str
    jobs: list[Job]
    batch: str = ""
    state: str = "queued"
    results: list[Any] | None = None
    error: str = ""
    reasons: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        return {
            "ticket": self.ticket_id,
            "client": self.client,
            "batch": self.batch,
            "jobs": len(self.jobs),
            "state": self.state,
            "error": self.error,
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service adds on top of a :class:`FarmConfig`."""

    farm: FarmConfig = field(default_factory=FarmConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: per-tier cache byte budget enforced by :meth:`FarmService.gc`
    cache_budget_bytes: int | None = None
    #: stream cache dir the GC also tends (None = skip)
    stream_dir: str | Path | None = None
    #: migrate the stream tier into two-level shard dirs during GC
    shard: bool = False


class FarmService:
    """A crash-recoverable, supervised farm."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.farm = Farm(self.config.farm)
        cache_dir = self.farm.cache.directory
        self.journal = JobJournal(cache_dir)
        self.supervisor = WorkerSupervisor(
            self.config.supervisor, ledger_dir=cache_dir
        )
        self.farm.journal = self.journal
        self.farm.supervisor = self.supervisor
        self._queue: deque[Ticket] = deque()
        self._ids = itertools.count(1)
        self.completed: list[Ticket] = []

    # -- intake

    def submit(
        self,
        jobs: Sequence[Job],
        client: str = "default",
        batch: str = "",
    ) -> Ticket:
        """Queue one batch; it runs at the next :meth:`drain`."""
        ticket_id = next(self._ids)
        ticket = Ticket(
            ticket_id=ticket_id,
            client=client,
            jobs=list(jobs),
            batch=batch or f"ticket-{ticket_id}",
        )
        self._queue.append(ticket)
        return ticket

    # -- execution

    def _run_ticket(self, ticket: Ticket) -> Ticket:
        self.farm.batch_label = ticket.batch
        self.farm.client_id = ticket.client
        with _span(
            "farm.service.ticket",
            ticket=ticket.ticket_id,
            client=ticket.client,
            jobs=len(ticket.jobs),
        ):
            try:
                ticket.results = self.farm.run_jobs(ticket.jobs)
                ticket.state = "done"
            except PoisonedJobsError as exc:
                # healthy jobs all completed (and are cached/journaled);
                # the ticket reports the quarantined ones by reason
                ticket.results = exc.results
                ticket.reasons = dict(exc.poisoned)
                ticket.state = "poisoned"
                ticket.error = str(exc)
            except FarmError as exc:
                ticket.state = "failed"
                ticket.error = str(exc)
        self.completed.append(ticket)
        return ticket

    def drain(self) -> list[Ticket]:
        """Run every queued ticket, in submit order."""
        finished = []
        while self._queue:
            finished.append(self._run_ticket(self._queue.popleft()))
        return finished

    def run(
        self,
        jobs: Sequence[Job],
        client: str = "default",
        batch: str = "",
    ) -> Ticket:
        """Submit one batch and drain immediately (the CLI's one-shot)."""
        ticket = self.submit(jobs, client=client, batch=batch)
        self.drain()
        return ticket

    # -- crash recovery

    def _rebuild_job(self, entry: JournalEntry) -> Job | None:
        if not entry.replayable or not entry.measure:
            return None
        return Job(
            measure=entry.measure, params=entry.params, seed=entry.seed
        )

    def resume(self) -> dict[str, Any]:
        """Replay unfinished journaled work, exactly once.

        For every queued/leased journal entry: a value already durable
        in the result cache is *reconciled* (journal marked done, no
        execution — the crash landed between cache write and commit);
        everything else is re-executed through the service's farm, one
        batch per run of entries sharing a batch label and client.  By
        the farm determinism contract the values are bit-identical to
        those of the run that died.
        """
        report = {
            "incomplete": 0,
            "reconciled": 0,
            "executed": 0,
            "unreplayable": 0,
        }
        session = _telemetry()
        journal_before = self.journal.tally()
        incomplete = self.journal.incomplete()
        report["incomplete"] = len(incomplete)
        rerun: list[tuple[JournalEntry, Job]] = []
        with _span("farm.service.resume", incomplete=len(incomplete)):
            for entry in incomplete:
                hit, _value = self.farm.cache.get(entry.key)
                if hit:
                    self.journal.reconcile(entry.key)
                    report["reconciled"] += 1
                    continue
                job = self._rebuild_job(entry)
                if job is None:
                    self.journal.fail(
                        entry.key,
                        entry.epoch,
                        {
                            "code": "unreplayable",
                            "detail": "journaled params do not round-trip "
                            "through JSON; resubmit the batch",
                        },
                    )
                    report["unreplayable"] += 1
                    continue
                rerun.append((entry, job))
            if session is not None:
                # loading the journal may have quarantined corrupt lines;
                # each replayed batch below publishes its own increments
                self.journal.publish(session.metrics, journal_before)
            for (batch, client), group in itertools.groupby(
                rerun, key=lambda pair: (pair[0].batch, pair[0].client)
            ):
                jobs = [job for _entry, job in group]
                self.farm.batch_label = batch
                self.farm.client_id = client
                self.farm.run_jobs(jobs)
                report["executed"] += len(jobs)
        if session is not None:
            for name, value in report.items():
                if value:
                    session.metrics.counter(
                        f"farm.service.resume.{name}"
                    ).inc(value)
        if report["incomplete"]:
            logger.info(
                "resume: %(incomplete)d unfinished job(s) — "
                "%(reconciled)d reconciled from cache, %(executed)d "
                "re-executed, %(unreplayable)d unreplayable", report,
            )
        return report

    # -- cache stewardship

    def gc(self, budget_bytes: int | None = None) -> dict[str, Any]:
        """One GC pass over every configured tier, journal pins held."""
        budget = (
            budget_bytes
            if budget_bytes is not None
            else self.config.cache_budget_bytes
        )
        collector = CacheGC(budget, pins=self.journal.live_keys())
        with _span("cache.gc", budget=budget or 0):
            collector.collect(
                farm_dir=self.farm.cache.directory,
                stream_dir=self.config.stream_dir,
                shard=self.config.shard,
            )
        # evictions invalidate the farm's in-memory cache index
        self.farm.cache._index = None
        session = _telemetry()
        if session is not None:
            collector.publish(session.metrics)
        return collector.summary()

    # -- observability

    def status(self) -> dict[str, Any]:
        supervisor = self.supervisor.summary()
        # every failed pool round rebuilds the pool and counts one retry
        supervisor["restarts"] = self.farm.metrics.retries
        return {
            "journal": self.journal.counts(),
            "tickets_queued": len(self._queue),
            "supervisor": supervisor,
            "tickets_completed": len(self.completed),
            "cache_entries": len(self.farm.cache),
        }

    def render_status(self) -> str:
        status = self.status()
        journal = status["journal"]
        supervisor = status["supervisor"]
        lines = [
            "journal       : "
            + ", ".join(f"{k}={v}" for k, v in journal.items()),
            f"queue         : {status['tickets_queued']} ticket(s) waiting",
            f"supervisor    : {supervisor['poisoned']} poisoned, "
            f"{supervisor['strikes']} strike(s), "
            f"{supervisor['restarts']} restart(s)",
            f"cache         : {status['cache_entries']} result(s)",
            f"tickets done  : {status['tickets_completed']}",
        ]
        return "\n".join(lines)


def journal_rows(entries: list[JournalEntry]) -> str:
    """Tabular ``repro jobs list`` rendering of journal entries."""
    header = ("key", "state", "measure", "seed", "batch", "client", "reason")
    rows = [header]
    for entry in entries:
        reason = str(entry.reason.get("code", "")) if entry.reason else ""
        rows.append(
            (
                entry.key[:12],
                entry.state,
                entry.measure or "?",
                str(entry.seed),
                entry.batch or "-",
                entry.client or "-",
                reason,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
