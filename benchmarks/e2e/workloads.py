"""The four pinned workloads, and what one pass of each executes.

Every workload is a closed loop in one process: one trial (or one farm
job) at a time, back to back.  A *pass* is the workload's fixed unit of
work; the runner repeats passes for the measured seconds.  Pass ``i`` of
a run with ``--seed N`` draws its trial seeds from ladder ``N``:
``base_seed + (N - 1) * ladder + i % ladder``, so a run longer than the
ladder repeats trials exactly, and the default seed reproduces the
ladder the paper's experiment uses (Table 7's seeds 100..115).

Each pass returns the simulated outputs it produced, keyed by trial, so
the runner can check them against ``expected.json`` and across passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.caches.config import CacheConfig, TLBConfig
from repro.core.tapeworm import TapewormConfig
from repro.farm.jobs import Job
from repro.farm.journal import JobJournal
from repro.farm.measures import trap_measure
from repro.farm.pool import FarmConfig
from repro.farm.service import FarmService, ServiceConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.streams.session import StreamSession
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: ``--seed`` values are taken modulo this many ladders
SEED_SPACE = 10_000


def ladder_seed(base: int, ladder: int, seed: int, index: int) -> int:
    """Trial seed of pass ``index`` under run seed ``seed``."""
    return base + ((seed - 1) % SEED_SPACE) * ladder + index % ladder


@dataclass
class PassResult:
    """What one pass did, and the outputs it produced."""

    seconds: float
    #: workload references requested (trials x the run budget)
    refs: int
    #: traps delivered to the Tapeworm miss handler
    traps: int
    #: trials run, or farm jobs submitted
    jobs: int
    #: output key -> simulated stats (a trial) or digest (a farm batch)
    records: dict[str, Any] = field(default_factory=dict)
    #: violated invariants, one message each
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TrialWorkload:
    """One trap-driven trial per program per pass."""

    name: str
    why: str
    programs: tuple[str, ...]
    total_refs: int
    tapeworm: Callable[[int], TapewormConfig]
    include_data_refs: bool = False
    base_seed: int = 1
    ladder: int = 8

    def trial_seed(self, seed: int, index: int) -> int:
        return ladder_seed(self.base_seed, self.ladder, seed, index)

    def precompile(self, session: StreamSession) -> None:
        for program in self.programs:
            session.precompile(
                get_workload(program), self.total_refs, self.include_data_refs
            )

    def trial(self, program: str, trial_seed: int) -> tuple[dict[str, int], list[str]]:
        report = run_trap_driven(
            get_workload(program),
            self.tapeworm(trial_seed),
            RunOptions(
                total_refs=self.total_refs,
                trial_seed=trial_seed,
                include_data_refs=self.include_data_refs,
            ),
        )
        stats = {
            "total_misses": report.stats.total_misses,
            "traps": report.traps,
            "ticks": report.ticks,
            "page_faults": report.page_faults,
            "overhead_cycles": report.overhead_cycles,
        }
        failures = []
        # every delivered trap is one simulated miss: no true memory
        # errors are injected, so nothing else reaches the handler
        if stats["traps"] != stats["total_misses"]:
            failures.append(
                f"{program}@{trial_seed}: {stats['traps']} traps but "
                f"{stats['total_misses']} misses"
            )
        return stats, failures

    def warm(self, seed: int, work_dir: Path) -> tuple[str, Any]:
        """The untimed set-up trial: pass 0's first trial."""
        program, trial_seed = self.programs[0], self.trial_seed(seed, 0)
        stats, _ = self.trial(program, trial_seed)
        return f"{program}@{trial_seed}", stats

    def run_pass(self, seed: int, index: int, work_dir: Path) -> PassResult:
        trial_seed = self.trial_seed(seed, index)
        result = PassResult(seconds=0.0, refs=0, traps=0, jobs=0)
        start = time.perf_counter()
        for program in self.programs:
            stats, failures = self.trial(program, trial_seed)
            result.records[f"{program}@{trial_seed}"] = stats
            result.failures.extend(failures)
            result.refs += self.total_refs
            result.traps += stats["traps"]
            result.jobs += 1
        result.seconds = time.perf_counter() - start
        return result


@contextmanager
def _flushes_skipped() -> Iterator[None]:
    """Make ``os.fsync`` a no-op for the duration of a farm pass.

    The journal and result cache flush after every append.  On a shared
    disk the flush latency, not the program, set the pass time: two
    identical passes of 1 200 jobs took 10.9 s and 19.7 s with flushes,
    and 9.6-10.2 s without.  The writes themselves (each append
    rewrites the whole file) still happen; ``farm.journal.appends``
    counts the flushes.
    """
    flush = os.fsync
    os.fsync = lambda fd: None
    try:
        yield
    finally:
        os.fsync = flush


@dataclass(frozen=True)
class FarmWorkload:
    """A serial ``FarmService`` lane: a cold batch, then an all-hit rerun."""

    name: str
    why: str
    program: str = "espresso"
    total_refs: int = 20_000
    tickets: int = 8
    jobs_per_ticket: int = 40
    base_seed: int = 1
    ladder: int = 4

    @property
    def params(self) -> dict[str, Any]:
        return {
            "workload": self.program,
            "total_refs": self.total_refs,
            "cache": {"size_bytes": 16 * 1024},
            "sampling": 8,
            "metric": "all",
        }

    def job_seeds(self, seed: int, index: int) -> list[list[int]]:
        """Per ticket, the seeds of its jobs."""
        base = ladder_seed(self.base_seed, self.ladder, seed, index) * 100_000
        return [
            [base + ticket * self.jobs_per_ticket + j for j in range(self.jobs_per_ticket)]
            for ticket in range(self.tickets)
        ]

    def precompile(self, session: StreamSession) -> None:
        session.precompile(get_workload(self.program), self.total_refs)

    def warm(self, seed: int, work_dir: Path) -> tuple[str, Any]:
        """The untimed set-up trial: pass 0's first job, run directly."""
        job_seed = self.job_seeds(seed, 0)[0][0]
        return f"job@{job_seed}", trap_measure(seed=job_seed, **self.params)

    def _serve(self, cache_dir: Path, batches: list[list[Job]]) -> list[Any]:
        service = FarmService(
            ServiceConfig(farm=FarmConfig(max_workers=1, cache_dir=cache_dir))
        )
        return [
            service.run(batch, batch=f"ticket-{number}")
            for number, batch in enumerate(batches)
        ]

    def run_pass(self, seed: int, index: int, work_dir: Path) -> PassResult:
        seeds = self.job_seeds(seed, index)
        batches = [
            [Job("trap.measure", self.params, seed=s) for s in ticket]
            for ticket in seeds
        ]
        n_jobs = self.tickets * self.jobs_per_ticket
        cache_dir = Path(tempfile.mkdtemp(prefix="farm-", dir=work_dir))
        try:
            with _flushes_skipped():
                start = time.perf_counter()
                cold = self._serve(cache_dir, batches)
                rerun = self._serve(cache_dir, batches)
                seconds = time.perf_counter() - start
            journal = JobJournal(cache_dir).counts()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        failures = [
            f"ticket {t.batch} ended {t.state}: {t.error}"
            for t in cold + rerun
            if t.state != "done"
        ]
        values = [t.results for t in cold]
        if [t.results for t in rerun] != values:
            failures.append("the all-hit rerun returned other values than the cold batch")
        if journal.get("done") != n_jobs or sum(journal.values()) != n_jobs:
            failures.append(f"journal holds {journal}, expected {n_jobs} done")
        digest = hashlib.sha256(
            json.dumps(values, sort_keys=True).encode("utf-8")
        ).hexdigest()
        pass_seed = ladder_seed(self.base_seed, self.ladder, seed, index)
        first = values[0][0] if values and values[0] else None
        return PassResult(
            seconds=seconds,
            refs=n_jobs * self.total_refs,
            traps=int(
                sum(v["total_misses"] for ticket in values for v in ticket or ())
            ),
            jobs=2 * n_jobs,
            records={
                f"pass@{pass_seed}": digest,
                f"job@{seeds[0][0]}": first,
            },
            failures=failures,
        )


WORKLOADS: dict[str, TrialWorkload | FarmWorkload] = {
    w.name: w
    for w in (
        TrialWorkload(
            name="trap-dense",
            why=(
                "4 KB direct-mapped cache, no sampling, on sdet and kenbus: "
                "about 0.19 traps per reference, so the per-trap handler "
                "chain sets the pace"
            ),
            programs=("sdet", "kenbus"),
            total_refs=300_000,
            tapeworm=lambda seed: TapewormConfig(cache=CacheConfig(size_bytes=4096)),
            base_seed=1,
            ladder=8,
        ),
        TrialWorkload(
            name="trap-sparse",
            why=(
                "Table 7 exactly (16 KB, 1/8 set sampling, all 8 workloads, "
                "seeds 100..115): sparse traps, so per-trial fixed costs weigh"
            ),
            programs=WORKLOAD_NAMES,
            total_refs=300_000,
            tapeworm=lambda seed: TapewormConfig(
                cache=CacheConfig(size_bytes=16 * 1024),
                sampling=8,
                sampling_seed=seed,
            ),
            base_seed=100,
            ladder=16,
        ),
        TrialWorkload(
            name="tlb-data",
            why=(
                "64-entry TLB with data references (the TLB extension's "
                "xlisp and sdet): page-valid traps, so the CPU's candidate "
                "scan and the MMU dominate, not the ECC handler"
            ),
            programs=("xlisp", "sdet"),
            total_refs=150_000,
            tapeworm=lambda seed: TapewormConfig(
                structure="tlb", tlb=TLBConfig(n_entries=64)
            ),
            include_data_refs=True,
            base_seed=4,
            ladder=16,
        ),
        FarmWorkload(
            name="farm-journal",
            why=(
                "a serial FarmService lane: 8 tickets of 40 trap.measure "
                "jobs, then a fresh service resubmits them all; journal and "
                "cache rewrites beside the simulation"
            ),
        ),
    )
}
