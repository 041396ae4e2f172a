"""Table 7: variation in measured memory system performance.

Sixteen trials per workload of a 16 KB, 4-word-line, direct-mapped,
*physically-indexed* cache with 1/8 set sampling, all activity included.
Every variance source is live: page allocation, the sampling pattern, and
OS scheduling jitter.  The paper's standard deviations run from ~7% to
~76% of the mean; minima and maxima can differ from the mean by 2x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.experiments import budget_refs
from repro.harness.experiment import TrialStats, run_trials
from repro.harness.runner import RunOptions, run_trap_driven
from repro.harness.tables import format_table, pct
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

if TYPE_CHECKING:
    from repro.farm.pool import Farm
    from repro.sampling.runner import SampledRunResult

#: paper's s as a percent of the mean, per workload
PAPER_STDEV_PCT = {
    "eqntott": 57, "espresso": 60, "jpeg_play": 7, "kenbus": 25,
    "mpeg_play": 12, "ousterhout": 8, "sdet": 21, "xlisp": 76,
}


@dataclass(frozen=True)
class Table7Result:
    stats: dict[str, TrialStats]
    n_trials: int


def measure_once(
    workload: str,
    seed: int,
    total_refs: int,
    cache: CacheConfig | None = None,
    sampling: int = 8,
) -> float:
    """One Table 7 trial: estimated total misses, all variance live."""
    spec = get_workload(workload)
    report = run_trap_driven(
        spec,
        TapewormConfig(
            cache=cache or CacheConfig(size_bytes=16 * 1024),
            sampling=sampling,
            sampling_seed=seed,
        ),
        RunOptions(total_refs=total_refs, trial_seed=seed),
    )
    return report.estimated_misses


def run_table7(
    budget: str = "quick",
    n_trials: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    farm: "Farm | None" = None,
) -> Table7Result:
    total_refs = budget_refs(budget)
    stats = {
        name: run_trials(
            "table7.measure", {"workload": name, "total_refs": total_refs},
            n_trials, base_seed=100, farm=farm,
        )
        for name in workloads
    }
    return Table7Result(stats=stats, n_trials=n_trials)


@dataclass(frozen=True)
class Table7SampledResult:
    """Table 7 via interval sampling: estimates instead of exact stats."""

    results: dict[str, "SampledRunResult"]
    n_trials: int


def default_interval_refs(total_refs: int, chunk_refs: int = 4096) -> int:
    """A serviceable default interval size: ~32 intervals per run, never
    smaller than a scheduler chunk (the runner's hard floor)."""
    return max(chunk_refs, total_refs // 32)


def run_table7_sampled(
    budget: str = "quick",
    n_trials: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    farm: "Farm | None" = None,
    interval_refs: int | None = None,
    max_phases: int = 4,
    per_phase: int = 3,
) -> Table7SampledResult:
    """Table 7 with interval sampling: same configuration and seed
    ladder, but each trial simulates only the plan's representative
    intervals and the estimator reassembles full-run estimates with CIs.

    The Tapeworm sampling seed is pinned to the base seed (all trials
    share the warmed boundary snapshots, so they share the set-sampling
    pattern by construction — exactly the PR 5 warm-trial contract);
    per-trial variance comes from scheduler jitter, tick jitter and
    frame allocation, re-armed per (trial, interval) at each fork.
    """
    from repro.sampling import build_plan, profile_workload, run_sampled_trials

    total_refs = budget_refs(budget)
    base_seed = 100
    options = RunOptions(total_refs=total_refs, trial_seed=base_seed)
    interval = (
        interval_refs
        if interval_refs is not None
        else default_interval_refs(total_refs, options.chunk_refs)
    )
    results = {}
    for name in workloads:
        spec = get_workload(name)
        profile = profile_workload(spec, total_refs, interval)
        plan = build_plan(
            profile, max_phases=max_phases, per_phase=per_phase, seed=base_seed
        )
        results[name] = run_sampled_trials(
            spec,
            TapewormConfig(
                cache=CacheConfig(size_bytes=16 * 1024),
                sampling=8,
                sampling_seed=base_seed,
            ),
            options,
            plan,
            n_trials=n_trials,
            base_seed=base_seed,
            warm_seed=base_seed,
            farm=farm,
        )
    return Table7SampledResult(results=results, n_trials=n_trials)


def render_sampled(result: Table7SampledResult) -> str:
    rows = []
    for name in sorted(result.results):
        r = result.results[name]
        misses = r.estimates["misses"]
        boot = r.estimates["misses.bootstrap"]
        # rendered reduction counts measured refs only: warm accounting
        # depends on execution topology (serial vs farm, worker count),
        # and rendered tables must be byte-identical across all of them
        rows.append(
            [
                name,
                misses.value,
                f"[{misses.ci_low:.0f}, {misses.ci_high:.0f}]",
                f"[{boot.ci_low:.0f}, {boot.ci_high:.0f}]",
                f"{r.plan.n_phases}/{len(r.plan.samples)}",
                f"{100.0 * r.refs_simulated / r.exact_refs:.0f}%",
            ]
        )
    return format_table(
        [
            "Workload", "Misses (est)", "95% CI (t)", "95% CI (boot)",
            "Phases/Samples", "Refs simulated",
        ],
        rows,
        title=(
            f"Table 7 (interval-sampled): estimates over "
            f"{result.n_trials} trials — every value is estimated, "
            "not measured"
        ),
        precision=0,
    )


def render(result: Table7Result) -> str:
    rows = []
    for name in sorted(result.stats):
        s = result.stats[name]
        rows.append(
            [
                name,
                s.mean,
                f"{s.stdev:.0f} {pct(s.stdev_pct)}",
                f"{s.minimum:.0f} {pct(s.minimum_pct)}",
                f"{s.maximum:.0f} {pct(s.maximum_pct)}",
                f"{s.value_range:.0f} {pct(s.range_pct)}",
                pct(PAPER_STDEV_PCT.get(name, 0)),
            ]
        )
    return format_table(
        ["Workload", "Misses (mean)", "s", "Min", "Max", "Range", "paper s%"],
        rows,
        title=(
            f"Table 7: measurement variation over {result.n_trials} trials "
            "(16 KB physically-indexed, 1/8 sampling, all activity)"
        ),
        precision=0,
    )
