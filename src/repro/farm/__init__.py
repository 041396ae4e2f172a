"""repro.farm — parallel trial execution with content-addressed caching.

The experiments in this library are embarrassingly parallel: every
trial is seeded (``base_seed + trial``) and fully deterministic, so
running a batch of trials one at a time is pure overhead.  Given a
batch of :class:`Job`\\ s (:func:`repro.harness.experiment.run_jobs`),
the farm skips any whose content-addressed key is already in the
on-disk :class:`ResultCache` and shards the rest across a process pool
— with output guaranteed bit-for-bit identical to running the same
jobs in process.

Quick start::

    from repro.farm import Farm, FarmConfig, Job

    farm = Farm(FarmConfig(max_workers=4))
    jobs = [
        Job("table7.measure",
            {"workload": "espresso", "total_refs": 300_000},
            seed=100 + trial)
        for trial in range(16)
    ]
    values = farm.run_jobs(jobs)        # parallel, cached
    print(farm.last_run.render())       # hits, latency, wall clock

``repro reproduce table7 --jobs 4`` drives the same machinery from the
command line; ``repro farm stats`` inspects the cache.

This module deliberately avoids importing :mod:`repro.farm.measures`
(which pulls in the full simulation stack) — measures resolve lazily by
import path when a job first needs them.
"""

from repro.farm.cache import ResultCache
from repro.farm.gc import CacheGC, journal_pins
from repro.farm.jobs import CODE_VERSION, Job, canonical, fingerprint
from repro.farm.journal import JobJournal, StaleLeaseError
from repro.farm.pool import DEFAULT_CACHE_DIR, Farm, FarmConfig
from repro.farm.progress import FarmMetrics
from repro.farm.registry import (
    BUILTIN_MEASURES,
    execute_job,
    register,
    registered_names,
    resolve,
)
from repro.farm.service import FarmService, ServiceConfig, Ticket
from repro.farm.supervisor import SupervisorConfig, WorkerSupervisor

__all__ = [
    "BUILTIN_MEASURES",
    "CODE_VERSION",
    "CacheGC",
    "DEFAULT_CACHE_DIR",
    "Farm",
    "FarmConfig",
    "FarmMetrics",
    "FarmService",
    "JobJournal",
    "Job",
    "ResultCache",
    "ServiceConfig",
    "StaleLeaseError",
    "SupervisorConfig",
    "Ticket",
    "WorkerSupervisor",
    "canonical",
    "execute_job",
    "fingerprint",
    "journal_pins",
    "register",
    "registered_names",
    "resolve",
]
