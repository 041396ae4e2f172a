"""repro.telemetry — the observability layer (metrics, traces, manifests).

The paper validated Tapeworm with *Monster*, a DAS 9200 hardware monitor
that counted instructions and attributed cycles unobtrusively; this
package is the software analogue for the whole reproduction stack:

* :mod:`~repro.telemetry.registry` — a metrics registry (``Counter``,
  ``Gauge``, fixed-bucket ``Histogram``) that the machine, kernel,
  Tapeworm and farm publish into under stable dotted names;
* :mod:`~repro.telemetry.spans` — the one timeline recorder: trap
  deliveries, page faults and clock ticks on the simulated clock, and
  causally linked wall-clock spans (farm batches, jobs, profile phases,
  the spans farm workers ship home) under one bound and one drop
  counter, exported as one Chrome ``trace_event`` file for Perfetto;
* :mod:`~repro.telemetry.aggregate` — the mergeable metrics snapshot
  format (counters sum, gauges last-write-wins, histograms bucket-wise
  exact add) that carries worker registries home per job;
* :mod:`~repro.telemetry.profile` — opt-in phase timers around kernel
  and stream hot paths, publishing ``profile.*`` histograms;
* :mod:`~repro.telemetry.manifest` — append-only JSONL run manifests
  (config hash, seed, git version, metrics snapshot, wall clock);
* :mod:`~repro.telemetry.session` — the process-wide on/off switch.

The hard guarantee, pinned by tier-1 tests: simulation results are
bit-identical with telemetry enabled or disabled.  Instrumentation
observes; it never participates.
"""

from repro.telemetry.manifest import (
    DEFAULT_MANIFEST_PATH,
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    git_version,
    read_manifests,
    validate_record,
    write_manifest,
)
from repro.telemetry.aggregate import (
    MAX_WORKER_SERIES,
    SNAPSHOT_VERSION,
    export_metrics,
    fold_into,
    merge_snapshots,
    split_key,
)
from repro.telemetry.profile import (
    KNOWN_PHASES,
    PROFILE_BUCKET_SECS,
    phase,
    profiling_enabled,
)
from repro.telemetry.registry import (
    CYCLE_BUCKETS,
    TIME_BUCKET_SECS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.telemetry.session import (
    TelemetrySession,
    activate,
    active,
    deactivate,
    drop_inherited,
    enabled,
)
from repro.telemetry.spans import (
    DEFAULT_TRACE_CAPACITY,
    FARM_PID,
    MACHINE_PID,
    WORKER_PID,
    Span,
    SpanRecorder,
    chrome_span_events,
    merge_chrome_traces,
    merged_chrome_trace,
    new_run_id,
    span,
    span_from_dict,
    spans_from_dicts,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "TIME_BUCKET_SECS",
    "CYCLE_BUCKETS",
    "RunManifest",
    "config_hash",
    "git_version",
    "read_manifests",
    "validate_record",
    "write_manifest",
    "DEFAULT_MANIFEST_PATH",
    "MANIFEST_SCHEMA_VERSION",
    "TelemetrySession",
    "activate",
    "active",
    "deactivate",
    "drop_inherited",
    "enabled",
    "Span",
    "SpanRecorder",
    "DEFAULT_TRACE_CAPACITY",
    "MACHINE_PID",
    "FARM_PID",
    "WORKER_PID",
    "chrome_span_events",
    "merge_chrome_traces",
    "merged_chrome_trace",
    "new_run_id",
    "span",
    "span_from_dict",
    "spans_from_dicts",
    "MAX_WORKER_SERIES",
    "SNAPSHOT_VERSION",
    "export_metrics",
    "fold_into",
    "merge_snapshots",
    "split_key",
    "KNOWN_PHASES",
    "PROFILE_BUCKET_SECS",
    "phase",
    "profiling_enabled",
]
