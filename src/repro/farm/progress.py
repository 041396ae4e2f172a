"""Structured metrics for one farm run (and cumulatively).

The farm's promise is "never recompute, never serialize what can
shard" — :class:`FarmMetrics` is how that promise is audited: wall
clock, per-job latency, cache hits vs. executions, retries, and whether
the pool fell back to in-process serial execution.

Per-job latencies live in a fixed-bucket
:class:`~repro.telemetry.registry.Histogram` rather than an unbounded
list: memory stays O(buckets) however many jobs a farm runs, while
``mean_latency_secs``/``max_latency_secs`` remain bit-exact (the
histogram tracks exact count, sum and extrema alongside its buckets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.registry import TIME_BUCKET_SECS, Histogram


def _latency_histogram() -> Histogram:
    return Histogram(TIME_BUCKET_SECS)


@dataclass
class FarmMetrics:
    """Counters and timings for a batch of jobs."""

    workers: int = 1
    jobs: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: failed pool rounds (the service reports them as pool restarts)
    retries: int = 0
    fallback_serial: bool = False
    #: the circuit breaker degraded the batch to serial execution
    breaker_tripped: bool = False
    #: corrupt cache records quarantined during this run
    cache_corrupt: int = 0
    #: jobs quarantined as poisoned by the supervisor during this run
    poisoned: int = 0
    wall_clock_secs: float = 0.0
    #: (attempt, backoff_secs) per retry, in order
    retry_events: list = field(default_factory=list)
    #: master-observed seconds per executed job (bounded histogram)
    latency: Histogram = field(default_factory=_latency_histogram)

    def record_execution(self, elapsed: float) -> None:
        self.executed += 1
        self.latency.observe(elapsed)

    def record_retry(self, attempt: int, backoff_secs: float) -> None:
        self.retries += 1
        self.retry_events.append((attempt, backoff_secs))

    @property
    def mean_latency_secs(self) -> float:
        return self.latency.mean

    @property
    def max_latency_secs(self) -> float:
        return self.latency.maximum

    @property
    def hit_ratio(self) -> float:
        if self.jobs == 0:
            return 0.0
        return self.cache_hits / self.jobs

    def merge(self, other: "FarmMetrics") -> None:
        """Fold another run's metrics into this cumulative record."""
        self.jobs += other.jobs
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.retries += other.retries
        self.fallback_serial = self.fallback_serial or other.fallback_serial
        self.breaker_tripped = self.breaker_tripped or other.breaker_tripped
        self.cache_corrupt += other.cache_corrupt
        self.poisoned += other.poisoned
        self.wall_clock_secs += other.wall_clock_secs
        self.retry_events.extend(other.retry_events)
        self.latency.merge(other.latency)

    def summary(self) -> dict[str, Any]:
        """The structured summary emitted after each run."""
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retries": self.retries,
            "fallback_serial": self.fallback_serial,
            "breaker_tripped": self.breaker_tripped,
            "cache_corrupt": self.cache_corrupt,
            "poisoned": self.poisoned,
            "wall_clock_secs": round(self.wall_clock_secs, 6),
            "mean_latency_secs": round(self.mean_latency_secs, 6),
            "max_latency_secs": round(self.max_latency_secs, 6),
            "hit_ratio": round(self.hit_ratio, 4),
        }

    def publish(self, metrics) -> None:
        """Copy this run's totals into a metrics registry under the
        ``farm.*`` namespace."""
        metrics.gauge("farm.workers").set(self.workers)
        if self.jobs:
            metrics.counter("farm.jobs").inc(self.jobs)
        if self.cache_hits:
            metrics.counter("farm.jobs.cache_hits").inc(self.cache_hits)
        if self.executed:
            metrics.counter("farm.jobs.executed").inc(self.executed)
        for attempt, backoff_secs in self.retry_events:
            metrics.counter(
                "farm.retries",
                attempt=str(attempt),
                backoff_secs=f"{backoff_secs:.3f}",
            ).inc()
        if self.breaker_tripped:
            metrics.counter("farm.breaker_tripped").inc()
        if self.cache_corrupt:
            metrics.counter("cache.corrupt").inc(self.cache_corrupt)
        if self.poisoned:
            metrics.counter("farm.jobs.poisoned").inc(self.poisoned)
        metrics.histogram(
            "farm.jobs.latency", bounds=self.latency.bounds
        ).merge(self.latency)

    def render(self) -> str:
        """Human-readable one-run report."""
        lines = [
            f"jobs          : {self.jobs}",
            f"cache hits    : {self.cache_hits} ({self.hit_ratio:.0%})",
            f"executed      : {self.executed}"
            + (f" on {self.workers} workers" if self.workers > 1 else " serially"),
            f"retries       : {self.retries}",
            f"wall clock    : {self.wall_clock_secs:.3f}s",
        ]
        if self.executed:
            lines.append(
                f"job latency   : mean {self.mean_latency_secs:.3f}s, "
                f"max {self.max_latency_secs:.3f}s"
            )
        if self.breaker_tripped:
            lines.append(
                "note          : circuit breaker open, degraded to serial"
            )
        elif self.fallback_serial:
            lines.append("note          : process pool unavailable, ran serially")
        if self.poisoned:
            lines.append(
                f"poisoned      : {self.poisoned} job(s) quarantined "
                "(see poisoned.jsonl)"
            )
        if self.cache_corrupt:
            lines.append(
                f"cache corrupt : {self.cache_corrupt} record(s) quarantined"
            )
        return "\n".join(lines)
