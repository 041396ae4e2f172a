"""Table 8: measurement variation due to set sampling, isolated.

Page-allocation effects are removed by simulating a *virtually-indexed*
cache; only espresso's user task is simulated.  Trials with and without
1/8 sampling then show: zero variance unsampled, nonzero variance
sampled, with sampled estimates centered near the unsampled truth.
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

SIZES_KB = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Table8Result:
    sampled: dict[int, TrialStats]
    unsampled: dict[int, TrialStats]
    n_trials: int


def _measure(workload, size_kb, sampling, seed, total_refs):
    spec = get_workload(workload)
    report = run_trap_driven(
        spec,
        TapewormConfig(
            cache=CacheConfig(
                size_bytes=size_kb * 1024, indexing=Indexing.VIRTUAL
            ),
            sampling=sampling,
            sampling_seed=seed,
        ),
        RunOptions(
            total_refs=total_refs,
            trial_seed=seed,
            simulate=frozenset({Component.USER}),
        ),
    )
    return report.estimated_misses


def run_table8(
    budget: str = "quick",
    workload: str = "espresso",
    n_trials: int = 6,
    sizes_kb: tuple[int, ...] = SIZES_KB,
    farm: "Farm | None" = None,
) -> Table8Result:
    """The whole size x sampling sweep as one job batch, so a farm's
    pool of workers fills instead of draining per configuration."""
    total_refs = budget_refs(budget)
    variants = [
        (size_kb, sampling) for size_kb in sizes_kb for sampling in (8, 1)
    ]
    jobs = [
        Job(
            "table8.measure",
            {
                "workload": workload,
                "size_kb": size_kb,
                "sampling": sampling,
                "total_refs": total_refs,
            },
            seed=200 + trial,
        )
        for size_kb, sampling in variants
        for trial in range(n_trials)
    ]
    values = iter(run_jobs(jobs, farm))
    sampled: dict[int, TrialStats] = {}
    unsampled: dict[int, TrialStats] = {}
    for size_kb, sampling in variants:
        stats = TrialStats(
            values=tuple(float(next(values)) for _ in range(n_trials))
        )
        (sampled if sampling == 8 else unsampled)[size_kb] = stats
    return Table8Result(sampled=sampled, unsampled=unsampled, n_trials=n_trials)


def render(result: Table8Result) -> str:
    rows = []
    for size_kb in sorted(result.sampled):
        s = result.sampled[size_kb]
        u = result.unsampled[size_kb]
        rows.append(
            [
                f"{size_kb}K",
                f"{s.mean:.0f}",
                f"{s.stdev:.0f} {pct(s.stdev_pct)}",
                f"{u.mean:.0f}",
                f"{u.stdev:.0f} {pct(u.stdev_pct)}",
            ]
        )
    return format_table(
        ["Size", "Sampled mean", "Sampled s", "Unsampled mean", "Unsampled s"],
        rows,
        title=(
            "Table 8: sampling-only variation (espresso user task, "
            "virtually-indexed, direct-mapped)"
        ),
    )
