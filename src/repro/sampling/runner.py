"""Sampled trial runner: simulate only the plan's intervals.

The expensive part of a trap-driven trial is *executing references*.  A
sampled trial executes only the plan's selected intervals; everything in
between is fast-forwarded functionally through the PR 5 warm-state
snapshot machinery: the warmup prefix up to each interval boundary runs
once under a shared warm seed, its state is snapshotted, and every trial
forks the snapshot instead of re-simulating the prefix.  Boundary
snapshots are built incrementally — one pass over the stream creates
all of them — so the warm cost is paid once and amortized across every
trial and interval.

Per-trial variance is preserved the same way ``run_warm_trials`` does
it: each fork re-arms the scheduler jitter, system-tick jitter and
frame-allocation RNGs with a seed derived from ``(trial, interval)``,
so sampled trials vary against each other exactly as full trials do.

Fault-injection sessions bypass sampling entirely (and loudly):
injected faults mutate warmed state mid-run, and an estimate built from
shared snapshots would leak one trial's damage into every other — the
same reasoning that bypasses PR 5 snapshot reuse, except here there is
no correct slow path, so it is an error, not a fallback.

Each (trial, interval) pair is one job (measure ``sampling.interval``),
run in this process or fanned out through the farm as a cached job;
each job's result is a small JSON dict of raw interval counters, and
the estimator reassembles them master-side.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

from repro.core.tapeworm import TapewormConfig
from repro.errors import ConfigError
from repro.farm.jobs import Job
from repro.faults.session import active as _faults
from repro.harness.experiment import run_jobs
from repro.harness.runner import (
    RunOptions,
    _boot_execution,
    _describe,
)
from repro.harness.slowdown import tapeworm_slowdown
from repro.sampling.estimator import (
    DEFAULT_BOOTSTRAP,
    Estimate,
    estimate_run,
)
from repro.sampling.plan import SamplingPlan
from repro.streams.keys import fingerprint_payload
from repro.streams.session import active as _streams
from repro.telemetry.profile import phase
from repro.telemetry.session import active as _telemetry
from repro.telemetry.spans import span as _span
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:
    from repro.farm.pool import Farm

#: seed stride between intervals of one trial — larger than any trial
#: ladder, so (trial, interval) seeds never collide across trials
_INTERVAL_SEED_STRIDE = 0x9E37


def interval_trial_seed(trial_seed: int, interval: int) -> int:
    """The measurement seed for one interval of one trial."""
    return trial_seed + _INTERVAL_SEED_STRIDE * (interval + 1)


def _plan_warm_base(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    warm_options: RunOptions,
    plan: SamplingPlan,
) -> str:
    """Identity of this plan's warmed prefix family.

    Mirrors ``_warm_snapshot_key``: everything that shaped the prefix is
    folded in — workload, Tapeworm config (including its sampling seed),
    the warm run options (which carry the shared warm seed as their
    ``trial_seed``) and the interval geometry.  Offsets are appended per
    boundary, so one base covers the whole snapshot family.
    """
    return fingerprint_payload(
        {
            "kind": "interval-snapshot",
            "workload": spec.name,
            "tapeworm": tw_config,
            "options": warm_options,
            "interval_refs": plan.interval_refs,
        }
    )


def _warm_to(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions,
    plan: SamplingPlan,
    start: int,
    warm_seed: int,
) -> tuple[object, int]:
    """An execution warmed to reference offset ``start``.

    Returns ``(execution, warm_refs_run)`` where the second element
    counts references actually simulated for warming (zero on a full
    snapshot hit).  With a stream session active, every plan boundary
    passed through on the way is snapshotted, so later intervals (and
    later trials) fork instead of replaying; without one, the prefix is
    replayed fresh — correct, merely unamortized.
    """
    warm_options = replace(options, trial_seed=warm_seed)
    if start == 0:
        execution = _boot_execution(spec, tw_config, warm_options)
        execution.apply_attributes()
        return execution, 0
    with phase("sampling.boundary_warm"):
        session = _streams()
        if session is None:
            execution = _boot_execution(spec, tw_config, warm_options)
            execution.apply_attributes()
            execution.run(stop_after_refs=start)
            return execution, execution.executed_refs
        base = _plan_warm_base(spec, tw_config, warm_options, plan)
        execution = session.snapshots.fork(f"{base}:{start}")
        if execution is not None:
            return execution, 0
        # resume from the nearest earlier interval-start snapshot, if
        # any (any interval start is a family member, not just plan
        # boundaries — exhaustive validation sweeps measure every
        # interval)
        starts = [
            i * plan.interval_refs for i in range(1, plan.n_intervals)
        ]
        position = 0
        earlier = [
            b for b in starts
            if 0 < b < start and f"{base}:{b}" in session.snapshots
        ]
        if earlier:
            position = max(earlier)
            execution = session.snapshots.fork(f"{base}:{position}")
        if execution is None:
            execution = _boot_execution(spec, tw_config, warm_options)
            execution.apply_attributes()
            position = 0
        resumed_at = execution.executed_refs
        # advance to start, snapshotting every plan boundary passed
        # through and the destination itself, so later intervals and
        # trials fork
        stops = sorted(
            {b for b in plan.boundaries() if position < b <= start} | {start}
        )
        for boundary in stops:
            execution.run(stop_after_refs=boundary)
            key = f"{base}:{boundary}"
            if key not in session.snapshots:
                session.snapshots.put(key, copy.deepcopy(execution))
        return execution, execution.executed_refs - resumed_at


def measure_interval(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions,
    plan: SamplingPlan,
    interval: int,
    trial_seed: int,
    warm_seed: int = 0,
) -> dict[str, float]:
    """Simulate one selected interval of one trial; raw counters only.

    The returned dict is JSON-encodable by construction — it is also the
    farm job payload — and reports *deltas* over the interval: reference
    count, estimated misses, traps taken, and Tapeworm overhead cycles.
    ``refs`` is the measured count (chunk boundaries overshoot), which
    is why the estimator works in per-reference rates.
    """
    if not 0 <= interval < plan.n_intervals:
        raise ConfigError(
            f"interval {interval} outside [0, {plan.n_intervals})"
        )
    start = plan.start_of(interval)
    end = start + plan.interval_refs
    if interval == plan.n_intervals - 1:
        end = max(end, plan.total_refs)  # the last interval owns the tail
    execution, warm_refs = _warm_to(
        spec, tw_config, options, plan, start, warm_seed
    )
    execution.reseed_for_measurement(interval_trial_seed(trial_seed, interval))
    tapeworm = execution.kernel.tapeworm
    refs_before = execution.executed_refs
    misses_before = tapeworm.estimated_total_misses()
    traps_before = execution.totals.traps
    overhead_before = tapeworm.overhead_cycles
    with _span(
        "sampling.measure_interval", interval=interval, start=start, end=end
    ):
        execution.run(stop_after_refs=end)
    refs = execution.executed_refs - refs_before
    if refs <= 0:
        raise ConfigError(
            f"interval {interval} measured no references — interval_refs "
            f"({plan.interval_refs}) must exceed chunk_refs "
            f"({options.chunk_refs})"
        )
    return {
        "interval": interval,
        "phase": int(plan.labels[interval]),
        "refs": int(refs),
        "misses": float(tapeworm.estimated_total_misses() - misses_before),
        "traps": int(execution.totals.traps - traps_before),
        "overhead_cycles": int(tapeworm.overhead_cycles - overhead_before),
        "warm_refs": int(warm_refs),
    }


def interval_measure(
    seed: int,
    workload: str,
    tapeworm: TapewormConfig,
    options: RunOptions,
    plan: SamplingPlan | Mapping,
    interval: int,
    warm_seed: int = 0,
) -> dict[str, float]:
    """Farm measure (``sampling.interval``): one interval of one trial.

    ``seed`` is the trial seed; ``options.trial_seed`` is ignored so two
    trials' jobs differ only by seed and the cache keys stay honest.
    """
    from repro.workloads.registry import get_workload

    if isinstance(plan, Mapping):
        plan = SamplingPlan.from_dict(dict(plan))
    spec = get_workload(workload)
    return measure_interval(
        spec,
        tapeworm,
        replace(options, trial_seed=seed),
        plan,
        interval,
        trial_seed=seed,
        warm_seed=warm_seed,
    )


@dataclass(frozen=True)
class SampledRunResult:
    """One workload's sampled experiment: estimates plus provenance."""

    workload: str
    configuration: str
    plan: SamplingPlan
    n_trials: int
    estimates: dict[str, Estimate]
    #: raw per-(trial, interval) measurements, in job order
    measurements: tuple[dict, ...]
    #: references actually simulated inside measured intervals
    refs_simulated: int
    #: references simulated to build warm boundary state (amortized)
    warm_refs: int

    @property
    def exact_refs(self) -> int:
        """What the same experiment costs without sampling."""
        return self.n_trials * self.plan.total_refs

    @property
    def total_refs_run(self) -> int:
        return self.refs_simulated + self.warm_refs

    @property
    def refs_reduction(self) -> float:
        """The headline: exact refs over sampled refs (>= 1 is a win)."""
        if self.total_refs_run == 0:
            return 0.0
        return self.exact_refs / self.total_refs_run

    def estimates_manifest(self) -> dict[str, dict]:
        """The run manifest's ``estimates`` block (schema v2)."""
        return {
            name: estimate.to_manifest()
            for name, estimate in sorted(self.estimates.items())
        }


def _validate_sampled_args(
    spec: WorkloadSpec, options: RunOptions, plan: SamplingPlan
) -> None:
    if _faults() is not None:
        raise ConfigError(
            "sampled trials cannot run under a fault-injection session: "
            "injected faults mutate shared warm state (run exact trials "
            "for fault experiments)"
        )
    if plan.workload != spec.name:
        raise ConfigError(
            f"plan is for workload {plan.workload!r}, not {spec.name!r}"
        )
    if plan.total_refs != options.total_refs:
        raise ConfigError(
            f"plan covers {plan.total_refs} refs but options request "
            f"{options.total_refs}"
        )
    if plan.interval_refs < options.chunk_refs:
        raise ConfigError(
            f"interval_refs ({plan.interval_refs}) must be at least "
            f"chunk_refs ({options.chunk_refs})"
        )


def run_sampled_trials(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions,
    plan: SamplingPlan,
    n_trials: int,
    base_seed: int = 0,
    warm_seed: int = 0,
    farm: "Farm | None" = None,
    n_boot: int = DEFAULT_BOOTSTRAP,
) -> SampledRunResult:
    """N sampled trials of one configuration, reassembled into estimates.

    Each (trial, interval) pair is one ``sampling.interval`` job, run
    in (trial, interval) order through :func:`run_jobs`: in this process
    against the session's snapshot store, or with a ``farm`` as cached
    jobs whose workers amortize warm state per process.  Either way the
    estimator sees the same measurements.
    """
    if n_trials <= 0:
        raise ConfigError(f"n_trials must be positive, got {n_trials}")
    _validate_sampled_args(spec, options, plan)
    jobs = [
        Job(
            measure="sampling.interval",
            params={
                "workload": spec.name,
                "tapeworm": tw_config,
                "options": replace(options, trial_seed=0),
                "plan": plan.to_dict(),
                "interval": sample.interval,
                "warm_seed": warm_seed,
            },
            seed=base_seed + trial,
        )
        for trial in range(n_trials)
        for sample in plan.samples
    ]
    measurements = tuple(run_jobs(jobs, farm))
    sizes = plan.phase_sizes()
    weights = {
        phase: count / plan.n_intervals for phase, count in sizes.items()
    }
    estimates = estimate_run(
        measurements,
        weights,
        options.total_refs,
        n_boot=n_boot,
        seed=base_seed,
    )
    # slowdown is a linear rescale of overhead cycles, CI included
    per_cycle = tapeworm_slowdown(1.0, spec, options.total_refs)
    estimates["slowdown"] = estimates["overhead_cycles"].scaled(
        per_cycle, "slowdown"
    )
    result = SampledRunResult(
        workload=spec.name,
        configuration=_describe(tw_config) + ", interval-sampled",
        plan=plan,
        n_trials=n_trials,
        estimates=estimates,
        measurements=measurements,
        refs_simulated=sum(int(m["refs"]) for m in measurements),
        warm_refs=sum(int(m["warm_refs"]) for m in measurements),
    )
    _publish_metrics(result)
    return result


def _publish_metrics(result: SampledRunResult) -> None:
    """Fold one sampled run into the telemetry registry (``sampling.*``)."""
    session = _telemetry()
    if session is None:
        return
    metrics = session.metrics
    labels = {"workload": result.workload}
    metrics.counter("sampling.runs", **labels).inc()
    metrics.counter("sampling.trials", **labels).inc(result.n_trials)
    metrics.counter("sampling.intervals_simulated", **labels).inc(
        len(result.measurements)
    )
    metrics.counter("sampling.refs_simulated", **labels).inc(
        result.refs_simulated
    )
    metrics.counter("sampling.warm_refs", **labels).inc(result.warm_refs)
    metrics.counter("sampling.refs_skipped", **labels).inc(
        max(0, result.exact_refs - result.total_refs_run)
    )
    metrics.gauge("sampling.phases", **labels).set(result.plan.n_phases)
    metrics.gauge("sampling.refs_reduction", **labels).set(
        round(result.refs_reduction, 3)
    )
