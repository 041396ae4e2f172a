"""Multi-trial experiments and their statistics.

Trap-driven measurements vary from run to run (page allocation, set
sampling, OS jitter), so the paper reports each configuration over many
trials — Table 7 uses 16 — with mean, standard deviation, minimum,
maximum, and range, each also expressed relative to the mean.
:class:`TrialStats` reproduces exactly that presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.farm.jobs import Job
    from repro.farm.pool import Farm


@dataclass(frozen=True)
class TrialStats:
    """Summary statistics over one experiment's trials (Table 7 style)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("TrialStats needs at least one trial")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def stdev(self) -> float:
        """Sample standard deviation (s in the paper's tables)."""
        if self.n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self.values) / (self.n - 1)
        )

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def value_range(self) -> float:
        return self.maximum - self.minimum

    # -- the parenthesized percentages of Tables 7-10

    def _pct(self, value: float) -> float:
        if self.mean == 0:
            return 0.0
        return 100.0 * value / self.mean

    @property
    def stdev_pct(self) -> float:
        """s as a percent of the mean."""
        return self._pct(self.stdev)

    @property
    def minimum_pct(self) -> float:
        """Percent difference of the minimum from the mean."""
        return self._pct(self.mean - self.minimum)

    @property
    def maximum_pct(self) -> float:
        """Percent difference of the maximum from the mean."""
        return self._pct(self.maximum - self.mean)

    @property
    def range_pct(self) -> float:
        return self._pct(self.value_range)

    def row(self) -> dict[str, float]:
        """A Table 7-shaped row."""
        return {
            "mean": self.mean,
            "s": self.stdev,
            "s_pct": self.stdev_pct,
            "min": self.minimum,
            "min_pct": self.minimum_pct,
            "max": self.maximum,
            "max_pct": self.maximum_pct,
            "range": self.value_range,
            "range_pct": self.range_pct,
        }


def _validate_trial_args(n_trials: int, base_seed: int) -> None:
    """Trial counts and seeds must be true integers — a float ``base_seed``
    would silently produce float seeds and un-keyable trials."""
    for name, value in (("n_trials", n_trials), ("base_seed", base_seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"{name} must be an integer, got {value!r} "
                f"({type(value).__name__})"
            )
    if n_trials <= 0:
        raise ConfigError(f"n_trials must be positive, got {n_trials}")


def run_jobs(jobs: Sequence["Job"], farm: "Farm | None" = None) -> list[Any]:
    """Each job's value, in job order: through ``farm``'s cache and pool,
    or else each job in turn in this process through
    :func:`~repro.farm.registry.execute_job`, the function a farm worker
    runs, with nothing fingerprinted, cached or written."""
    if farm is not None:
        return farm.run_jobs(jobs)
    from repro.farm.registry import execute_job

    return [execute_job(job.measure, job.params, job.seed) for job in jobs]


def run_trials(
    measure: str,
    params: Mapping[str, Any],
    n_trials: int,
    base_seed: int = 0,
    farm: "Farm | None" = None,
) -> TrialStats:
    """Run a registered measure (:mod:`repro.farm.registry`) with its
    non-seed keyword arguments ``params`` for seeds ``base_seed`` ..
    ``base_seed + n_trials - 1``, through :func:`run_jobs`."""
    from repro.farm.jobs import Job

    _validate_trial_args(n_trials, base_seed)
    jobs = [
        Job(measure=measure, params=dict(params), seed=base_seed + trial)
        for trial in range(n_trials)
    ]
    return TrialStats(values=tuple(float(v) for v in run_jobs(jobs, farm)))


def stats_of(values: Sequence[float]) -> TrialStats:
    """Wrap already-collected trial values."""
    return TrialStats(values=tuple(values))
