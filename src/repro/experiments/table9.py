"""Table 9: measurement variation due to page allocation, isolated.

Sampling is off; only mpeg_play's user task runs.  The same simulation
is repeated for physically- and virtually-indexed caches from 4 KB to
128 KB.  Expectations from the paper:

* virtual indexing: zero variance at every size;
* physical indexing: zero variance at 4 KB ("all pages overlap in caches
  that are 4 K-bytes or smaller"), nonzero above, with the relative
  variance peaking near the workload's text size (~32 KB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._types import Component, Indexing
from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.experiments import budget_refs
from repro.farm.jobs import Job
from repro.harness.experiment import TrialStats, run_jobs
from repro.harness.runner import RunOptions, run_trap_driven
from repro.harness.tables import format_table, pct
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.farm.pool import Farm

SIZES_KB = (4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class Table9Result:
    physical: dict[int, TrialStats]
    virtual: dict[int, TrialStats]
    n_trials: int


def _measure(workload, size_kb, indexing, seed, total_refs):
    spec = get_workload(workload)
    report = run_trap_driven(
        spec,
        TapewormConfig(
            cache=CacheConfig(size_bytes=size_kb * 1024, indexing=indexing)
        ),
        RunOptions(
            total_refs=total_refs,
            trial_seed=seed,
            simulate=frozenset({Component.USER}),
        ),
    )
    return float(report.stats.total_misses)


def run_table9(
    budget: str = "quick",
    workload: str = "mpeg_play",
    n_trials: int = 4,
    sizes_kb: tuple[int, ...] = SIZES_KB,
    farm: "Farm | None" = None,
) -> Table9Result:
    """Both indexings at every size as one job batch, run in this
    process or, with ``farm``, through its cache and pool."""
    total_refs = budget_refs(budget)
    variants = [
        (size_kb, indexing)
        for size_kb in sizes_kb
        for indexing in (Indexing.PHYSICAL, Indexing.VIRTUAL)
    ]
    jobs = [
        Job(
            "table9.measure",
            {
                "workload": workload,
                "size_kb": size_kb,
                "indexing": indexing,
                "total_refs": total_refs,
            },
            seed=300 + trial,
        )
        for size_kb, indexing in variants
        for trial in range(n_trials)
    ]
    values = iter(run_jobs(jobs, farm))
    physical: dict[int, TrialStats] = {}
    virtual: dict[int, TrialStats] = {}
    for size_kb, indexing in variants:
        stats = TrialStats(
            values=tuple(float(next(values)) for _ in range(n_trials))
        )
        target = physical if indexing is Indexing.PHYSICAL else virtual
        target[size_kb] = stats
    return Table9Result(physical=physical, virtual=virtual, n_trials=n_trials)


def render(result: Table9Result) -> str:
    rows = []
    for size_kb in sorted(result.physical):
        p = result.physical[size_kb]
        v = result.virtual[size_kb]
        rows.append(
            [
                f"{size_kb}K",
                f"{p.mean:.0f}",
                f"{p.stdev:.0f} {pct(p.stdev_pct)}",
                f"{v.mean:.0f}",
                f"{v.stdev:.0f} {pct(v.stdev_pct)}",
            ]
        )
    return format_table(
        ["Size", "Phys mean", "Phys s", "Virt mean", "Virt s"],
        rows,
        title=(
            "Table 9: page-allocation variation (mpeg_play user task, "
            "no sampling, direct-mapped)"
        ),
    )
