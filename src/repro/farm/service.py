"""The supervised farm service: journal + supervisor + admission + GC.

:class:`FarmService` is the long-running form of the PR 1 farm — the
ROADMAP's "serve heavy traffic" promotion.  It composes the four
service-plane pieces this package grew:

* every submitted batch is journaled (:mod:`repro.farm.journal`)
  *before* it runs, so a SIGKILL at any instant is recoverable:
  :meth:`FarmService.resume` replays exactly the unfinished work,
  reconciling jobs whose values already reached the result cache
  rather than re-executing them (exactly-once observable effect);
* the pool runs under a :class:`~repro.farm.supervisor.WorkerSupervisor`
  — hang/crash/flap detection, poison quarantine, restart cool-down;
* clients enter through an
  :class:`~repro.farm.admission.AdmissionController` — bounded queue,
  fair share across client ids, load shedding that degrades to serial
  execution (bit-identical by the farm determinism contract) instead
  of rejecting;
* the cache tiers are held under a byte budget by
  :class:`~repro.farm.gc.CacheGC`, with journal leases pinning
  in-flight entries.

The service is single-threaded: ``submit`` queues, ``drain`` runs.
That mirrors the paper's reality — one master schedules everything —
and keeps every run bit-reproducible; "service" here means surviving
crashes, bad jobs and overload across a long life, not threads.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import FarmError, PoisonedJobsError
from repro.farm.admission import AdmissionConfig, AdmissionController, Ticket
from repro.farm.gc import CacheGC
from repro.farm.jobs import Job
from repro.farm.journal import JobJournal, JournalEntry
from repro.farm.pool import Farm, FarmConfig
from repro.farm.supervisor import SupervisorConfig, WorkerSupervisor
from repro.telemetry.session import active as _telemetry
from repro.telemetry.spans import span as _span

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service adds on top of a :class:`FarmConfig`."""

    farm: FarmConfig = dataclasses.field(default_factory=FarmConfig)
    supervisor: SupervisorConfig = dataclasses.field(
        default_factory=SupervisorConfig
    )
    admission: AdmissionConfig = dataclasses.field(
        default_factory=AdmissionConfig
    )
    #: per-tier cache byte budget enforced by :meth:`FarmService.gc`
    cache_budget_bytes: int | None = None
    #: stream cache dir the GC also tends (None = skip)
    stream_dir: str | Path | None = None
    #: migrate the stream tier into two-level shard dirs during GC
    shard: bool = False


class FarmService:
    """A crash-recoverable, supervised, admission-controlled farm."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.farm = Farm(self.config.farm)
        cache_dir = self.farm.cache.directory
        self.journal = JobJournal(cache_dir)
        self.supervisor = WorkerSupervisor(
            self.config.supervisor, ledger_dir=cache_dir
        )
        self.admission = AdmissionController(self.config.admission)
        self.farm.journal = self.journal
        self.farm.supervisor = self.supervisor
        # the degraded lane: same cache, same journal, serial execution
        self._serial_farm = Farm(
            dataclasses.replace(
                self.config.farm, max_workers=1, worker_faults=None
            )
        )
        self._serial_farm.cache = self.farm.cache
        self._serial_farm.journal = self.journal
        self.completed: list[Ticket] = []

    # -- intake

    def submit(
        self,
        jobs: Sequence[Job],
        client: str = "default",
        batch: str = "",
    ) -> Ticket:
        """Admit one batch; it runs at the next :meth:`drain`."""
        ticket = self.admission.submit(jobs, client=client, batch=batch)
        if not batch:
            ticket.batch = f"ticket-{ticket.ticket_id}"
        return ticket

    # -- execution

    def _run_ticket(self, ticket: Ticket) -> Ticket:
        farm = self._serial_farm if ticket.degraded else self.farm
        farm.batch_label = ticket.batch
        farm.client_id = ticket.client
        with _span(
            "farm.service.ticket",
            ticket=ticket.ticket_id,
            client=ticket.client,
            jobs=len(ticket.jobs),
            degraded=ticket.degraded,
        ):
            try:
                ticket.results = farm.run_jobs(ticket.jobs)
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
        """Run every queued ticket in fair-share order."""
        finished = []
        while True:
            ticket = self.admission.next_ticket()
            if ticket is None:
                break
            finished.append(self._run_ticket(ticket))
        session = _telemetry()
        if session is not None:
            self.admission.publish(session.metrics)
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
        everything else is re-executed through the serial lane, whose
        results are bit-identical to the pooled run that died.
        """
        report = {
            "incomplete": 0,
            "reconciled": 0,
            "executed": 0,
            "unreplayable": 0,
        }
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
            for entry, job in rerun:
                self._serial_farm.batch_label = entry.batch
                self._serial_farm.client_id = entry.client
                self._serial_farm.run_jobs([job])
                report["executed"] += 1
        session = _telemetry()
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
        return {
            "journal": self.journal.counts(),
            "admission": self.admission.summary(),
            "supervisor": self.supervisor.summary(),
            "tickets_completed": len(self.completed),
            "cache_entries": len(self.farm.cache),
        }

    def render_status(self) -> str:
        status = self.status()
        journal = status["journal"]
        admission = status["admission"]
        supervisor = status["supervisor"]
        lines = [
            "journal       : "
            + ", ".join(f"{k}={v}" for k, v in journal.items()),
            f"queue         : {admission['queue_depth']} job(s) in "
            f"{admission['tickets_queued']} ticket(s) from "
            f"{admission['clients']} client(s)",
            f"admitted/shed : {admission['admitted']}/{admission['shed']}"
            + (" [degraded latched]" if admission["degraded_latched"] else ""),
            f"supervisor    : {supervisor['poisoned']} poisoned, "
            f"{supervisor['strikes']} strike(s), "
            f"{supervisor['restarts']} restart(s)"
            + (" [flapping]" if supervisor["flapping"] else ""),
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
