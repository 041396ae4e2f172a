"""Interval profiling: cheap per-interval feature vectors, one pass.

A compiled reference stream (PR 5) is a flat ``int64`` address array.
The profiler slices it into fixed-size intervals and computes, for each,
a small feature vector that captures *what the memory system would see*
without simulating anything:

* **new-line rate** — first-ever touches of a cache line per reference
  (cold-miss pressure);
* **unique-line rate** — distinct lines touched inside the interval per
  reference (working-set size, normalized);
* **reuse-interval sketch** — a log-bucketed histogram of the distance
  (in references) back to each line's previous touch, the cheap stand-in
  for a reuse-distance profile: temporal locality at a glance;
* **stride mix** — mean log2 jump between successive references
  (spatial locality / streaming behavior).

Everything is computed in one vectorized pass over the whole stream:
previous-occurrence positions come from a stable argsort by line (the
same grouped-set idiom as :mod:`repro.caches.kernels`), and per-interval
aggregation is ``np.bincount`` over ``position // interval_refs``.
Profiling is therefore orders of magnitude cheaper than simulating the
stream, which is the entire point: phases are detected on features, and
only representatives are simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: upper edges (exclusive) of the log-bucketed reuse-interval histogram,
#: in references; the final bucket is open-ended
REUSE_BUCKET_EDGES = (8, 64, 512, 4096)

#: feature vector layout (order matters: it is the clustering space)
FEATURE_NAMES = (
    "new_line_rate",
    "unique_line_rate",
    "mean_log2_stride",
    *(f"reuse_le_{edge}" for edge in REUSE_BUCKET_EDGES),
    "reuse_far",
)


@dataclass(frozen=True)
class IntervalProfile:
    """Per-interval features of one stream, plus the slicing geometry."""

    workload: str
    task: str
    interval_refs: int
    n_intervals: int
    total_refs: int
    features: np.ndarray  #: (n_intervals, len(FEATURE_NAMES)) float64

    def __post_init__(self) -> None:
        if self.features.shape != (self.n_intervals, len(FEATURE_NAMES)):
            raise ConfigError(
                f"feature matrix shape {self.features.shape} does not match "
                f"{self.n_intervals} intervals x {len(FEATURE_NAMES)} features"
            )

    def rows(self) -> list[dict[str, float]]:
        """The feature matrix as one dict per interval (CLI/JSON view)."""
        return [
            dict(zip(FEATURE_NAMES, map(float, row)))
            for row in self.features
        ]


def _previous_occurrence(lines: np.ndarray) -> np.ndarray:
    """For each position, the position of the same line's previous
    occurrence, or -1 for a first-ever touch.  Stable argsort groups
    equal lines while preserving position order inside each group."""
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same_as_predecessor = sorted_lines[1:] == sorted_lines[:-1]
    prev[order[1:][same_as_predecessor]] = order[:-1][same_as_predecessor]
    return prev


def profile_addresses(
    addresses: np.ndarray,
    interval_refs: int,
    line_bytes: int = 16,
    workload: str = "?",
    task: str = "?",
) -> IntervalProfile:
    """Profile a flat address array into per-interval feature vectors.

    ``addresses`` longer than a whole number of intervals keeps its tail
    in the last interval's statistics (intervals are equal-size except
    possibly the last); the estimator scales by true reference counts,
    so the geometry here only has to match the plan built from it.
    """
    if interval_refs <= 0:
        raise ConfigError(f"interval_refs must be positive, got {interval_refs}")
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ConfigError(f"line_bytes must be a power of two, got {line_bytes}")
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    total_refs = len(addresses)
    if total_refs == 0:
        raise ConfigError("cannot profile an empty stream")
    n_intervals = max(1, total_refs // interval_refs)

    line_shift = line_bytes.bit_length() - 1
    lines = addresses >> line_shift
    positions = np.arange(total_refs, dtype=np.int64)
    interval_of = np.minimum(positions // interval_refs, n_intervals - 1)
    refs_per_interval = np.bincount(interval_of, minlength=n_intervals)

    prev = _previous_occurrence(lines)
    new_line = prev < 0
    reuse = positions - prev  # meaningful only where prev >= 0

    # first touch of a line *within its interval*: either first ever, or
    # the previous touch happened in an earlier interval
    interval_start = interval_of * interval_refs
    first_in_interval = new_line | (prev < interval_start)

    features = np.zeros((n_intervals, len(FEATURE_NAMES)), dtype=np.float64)
    denominator = np.maximum(refs_per_interval, 1).astype(np.float64)
    features[:, 0] = (
        np.bincount(interval_of[new_line], minlength=n_intervals) / denominator
    )
    features[:, 1] = (
        np.bincount(interval_of[first_in_interval], minlength=n_intervals)
        / denominator
    )
    strides = np.abs(np.diff(addresses, prepend=addresses[0]))
    features[:, 2] = (
        np.bincount(
            interval_of, weights=np.log2(1.0 + strides), minlength=n_intervals
        )
        / denominator
    )

    reused = ~new_line
    edges = np.array(REUSE_BUCKET_EDGES, dtype=np.int64)
    bucket = np.searchsorted(edges, reuse[reused], side="left")
    flat = interval_of[reused] * (len(edges) + 1) + bucket
    histogram = np.bincount(
        flat, minlength=n_intervals * (len(edges) + 1)
    ).reshape(n_intervals, len(edges) + 1)
    features[:, 3:] = histogram / denominator[:, None]

    return IntervalProfile(
        workload=workload,
        task=task,
        interval_refs=interval_refs,
        n_intervals=n_intervals,
        total_refs=total_refs,
        features=features,
    )


def profile_workload(
    spec,
    total_refs: int,
    interval_refs: int,
    task_name: str | None = None,
    include_data_refs: bool = False,
    line_bytes: int = 16,
) -> IntervalProfile:
    """Profile one workload's primary task stream over a run's budget.

    The trap-driven run interleaves several task streams under the
    scheduler, but its phase structure is driven by the underlying
    per-task streams; the primary user task's stream is the cheap,
    deterministic proxy the clusterer operates on.  With a stream
    session active the profile reads the session's prefix through a
    cursor, growing it to the budget if no earlier run did; otherwise
    the stream is compiled in memory for the profile pass only.
    """
    from repro.streams.compile import build_live_stream, compile_stream
    from repro.streams.session import active as _streams

    task = task_name or spec.primary_task
    session = _streams()
    if session is not None:
        stream = session.stream_for(spec, task, include_data_refs)
        addresses = stream.next_chunk(total_refs)
    else:
        addresses = compile_stream(
            build_live_stream(spec.name, spec.task(task), include_data_refs),
            total_refs,
        )
    return profile_addresses(
        addresses,
        interval_refs,
        line_bytes=line_bytes,
        workload=spec.name,
        task=task,
    )
