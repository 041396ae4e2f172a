"""Table 10: measurement variation removed.

The Table 7 measurement repeated with both controllable variance sources
off — virtually-indexed caches (no page-allocation effects) and no set
sampling.  Residual variance comes only from dynamic OS effects
(scheduling jitter), and the paper's standard deviations collapse from
7–76% to 0–4%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._types import Indexing
from repro.caches.config import CacheConfig
from repro.experiments import budget_refs
from repro.harness.experiment import TrialStats, run_trials
from repro.harness.tables import format_table, pct
from repro.workloads.registry import WORKLOAD_NAMES

if TYPE_CHECKING:
    from repro.farm.pool import Farm

#: paper's residual s% per workload
PAPER_STDEV_PCT = {
    "eqntott": 2, "espresso": 1, "jpeg_play": 0, "kenbus": 0,
    "mpeg_play": 0, "ousterhout": 4, "sdet": 0, "xlisp": 1,
}


@dataclass(frozen=True)
class Table10Result:
    stats: dict[str, TrialStats]
    n_trials: int


def run_table10(
    budget: str = "quick",
    n_trials: int = 4,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    farm: "Farm | None" = None,
) -> Table10Result:
    params = {
        "total_refs": budget_refs(budget),
        "cache": CacheConfig(size_bytes=16 * 1024, indexing=Indexing.VIRTUAL),
        "sampling": 1,
    }
    stats = {
        name: run_trials(
            "table7.measure", {"workload": name, **params}, n_trials,
            base_seed=100, farm=farm,
        )
        for name in workloads
    }
    return Table10Result(stats=stats, n_trials=n_trials)


def render(result: Table10Result) -> str:
    rows = []
    for name in sorted(result.stats):
        s = result.stats[name]
        rows.append(
            [
                name,
                s.mean,
                f"{s.stdev:.0f} {pct(s.stdev_pct)}",
                f"{s.value_range:.0f} {pct(s.range_pct)}",
                pct(PAPER_STDEV_PCT.get(name, 0)),
            ]
        )
    return format_table(
        ["Workload", "Misses (mean)", "s", "Range", "paper s%"],
        rows,
        title=(
            f"Table 10: variation removed ({result.n_trials} trials, "
            "16 KB virtually-indexed, no sampling, all activity)"
        ),
        precision=0,
    )
