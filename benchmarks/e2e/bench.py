"""Run one workload: set up, time passes, check outputs, report metrics.

Set-up is stream precompilation into a fresh, empty stream session plus
one untimed warm trial.  It runs :data:`SETUP_REPEATS` times, each into
its own empty session, and ``setup_s`` is the median; the last session
stays active for the measured passes.  Its store is the in-memory one
(the CLI's ``--no-stream-cache``): on ``trap-dense`` an on-disk store
wrote ~1.3 GB per set-up and made set-up ~3x slower (7 s against 2.5 s).
Farm caches live in a private directory under ``benchmarks/e2e/.work/``,
removed at exit.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced passes and report the per-layer metrics, the
traced passes' overhead against the untraced ones, and write
``layers.json`` and a Chrome trace under ``benchmarks/e2e/runs/``.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.caches.pipeline import default_registry
from repro.streams import session as streams
from repro.streams.store import StreamStore

from benchmarks.e2e.layers import LAYERS, LayerTracer
from benchmarks.e2e.workloads import FarmWorkload, PassResult, TrialWorkload

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
RUNS_DIR = HERE / "runs"
EXPECTED_PATH = HERE / "expected.json"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: the seed whose outputs ``expected.json`` pins
DEFAULT_SEED = 1

#: traced coverage floor: at most this share of a traced pass may go
#: to no layer
MAX_UNATTRIBUTED = 0.10

#: end-to-end metric -> unit
END_TO_END = {
    "refs_per_s": "1/s",
    "traps_per_s": "1/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "fraction"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "core.tapeworm.us_per_trap": "us",
            "machine.chunkindex.hit_ratio": "fraction",
            "machine.mmu.candidate_yield": "fraction",
            "streams.precompile_s": "s",
            "streams.compiled_refs": "count",
            "caches.pipeline.compiles": "count",
            "caches.pipeline.compose_s": "s",
            "farm.journal.appends": "count",
            "farm.journal.write_amplification": "ratio",
            "harness.unattributed_frac": "fraction",
            "trace.overhead_frac": "fraction",
        }
    )
    return units


#: per-layer metric -> unit (traced runs only)
PER_LAYER = _per_layer_units()


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"median": median, "p25": p25, "p75": p75, "n": len(values)}


def load_expected() -> dict[str, dict[str, Any]]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def _check_records(
    name: str,
    produced: dict[str, Any],
    seen: dict[str, Any],
    expected: dict[str, Any] | None,
) -> list[str]:
    """Outputs must repeat across passes and, at the default seed,
    equal the pinned ones."""
    failures = []
    for key, value in produced.items():
        if key in seen and seen[key] != value:
            failures.append(f"{name} {key}: {value} differs from an earlier {seen[key]}")
        seen.setdefault(key, value)
        if expected is None:
            continue
        if key not in expected:
            failures.append(f"{name} {key}: not pinned in expected.json")
        elif expected[key] != value:
            failures.append(f"{name} {key}: {value} != pinned {expected[key]}")
    return failures


def _set_up(
    workload: TrialWorkload | FarmWorkload, seed: int, work_dir: Path, setups: int
) -> dict[str, Any]:
    """Set up ``setups`` times; the last stream session stays active."""
    done: dict[str, Any] = {"setup_s": [], "precompile_s": [], "warm": []}
    for _ in range(setups):
        if streams.active() is not None:
            streams.deactivate()
        start = time.perf_counter()
        session = streams.activate(
            streams.StreamSession(StreamStore(work_dir, enabled=False))
        )
        workload.precompile(session)
        done["precompile_s"].append(time.perf_counter() - start)
        done["warm"].append(workload.warm(seed, work_dir))
        done["setup_s"].append(time.perf_counter() - start)
    done["compiled_refs"] = session.compiled_refs
    return done


def _layer_metrics(
    tracer: LayerTracer, setup: dict[str, Any], untraced: list[PassResult]
) -> dict[str, float]:
    registry = default_registry()
    values = tracer.layer_metrics()
    values.update(
        {
            "streams.precompile_s": statistics.median(setup["precompile_s"]),
            "streams.compiled_refs": setup["compiled_refs"],
            "caches.pipeline.compiles": registry.compiles,
            "caches.pipeline.compose_s": registry.compile_secs,
            "trace.overhead_frac": statistics.median(tracer.pass_seconds)
            / statistics.median(r.seconds for r in untraced)
            - 1.0,
        }
    )
    return values


def _write_trace(record: dict[str, Any], tracer: LayerTracer) -> None:
    out_dir = RUNS_DIR / record["workload"]
    out_dir.mkdir(parents=True, exist_ok=True)
    layers = {k: record[k] for k in ("workload", "seed", "metrics", "layers")}
    (out_dir / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")
    (out_dir / "trace.json").write_text(json.dumps(tracer.chrome_trace()))


def run_workload(
    workload: TrialWorkload | FarmWorkload,
    seed: int = DEFAULT_SEED,
    seconds: float = 15.0,
    trace: bool = False,
    passes: int | None = None,
    expected: dict[str, Any] | None = None,
    setups: int = SETUP_REPEATS,
) -> dict[str, Any]:
    """One run of one workload; returns its full result record.

    ``passes`` fixes the pass count (used by ``--bless``) instead of
    filling ``seconds``.  ``expected`` is the workload's pinned outputs,
    or None to skip that check.
    """
    name = workload.name
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    tracer = LayerTracer() if trace else None
    failures: list[str] = []
    seen: dict[str, Any] = {}
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    try:
        setup = _set_up(workload, seed, work_dir, setups)
        index = 0
        started = time.perf_counter()
        while True:
            if tracer is not None and index % 2 == 1:
                result = tracer.measure(
                    lambda: workload.run_pass(seed, index, work_dir)
                )
                traced.append(result)
            else:
                result = workload.run_pass(seed, index, work_dir)
                untraced.append(result)
            index += 1
            failures.extend(result.failures)
            failures.extend(_check_records(name, result.records, seen, expected))
            if passes is not None:
                if index >= passes:
                    break
            elif time.perf_counter() - started >= seconds and (
                tracer is None or traced
            ):
                break
    finally:
        if streams.active() is not None:
            streams.deactivate()
        shutil.rmtree(work_dir, ignore_errors=True)
    for key, value in setup["warm"]:
        if key in seen and seen[key] != value:
            failures.append(
                f"{name} {key}: set-up trial gave {value}, pass gave {seen[key]}"
            )

    if tracer is None:
        samples = {
            "refs_per_s": [r.refs / r.seconds for r in untraced],
            "traps_per_s": [r.traps / r.seconds for r in untraced],
            "jobs_per_s": [r.jobs / r.seconds for r in untraced],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ],
        }
        units = END_TO_END
    else:
        samples = {
            metric: [value]
            for metric, value in _layer_metrics(tracer, setup, untraced).items()
        }
        units = PER_LAYER
    summary = {metric: summarize(samples[metric]) for metric in units}
    attempted = sum(r.jobs for r in untraced + traced)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            metric: {"value": summary[metric]["median"], "unit": unit}
            for metric, unit in units.items()
        },
        "summary": summary,
        "passes": [
            {"seconds": r.seconds, "refs": r.refs, "traps": r.traps, "jobs": r.jobs}
            for r in untraced
        ],
        "failures": failures,
        "records": seen,
    }
    if tracer is not None:
        record["layers"] = {
            layer: vars(totals) for layer, totals in tracer.totals.items()
        }
        record["traced_pass_seconds"] = tracer.pass_seconds
        _write_trace(record, tracer)
    return record


def coverage_failure(record: dict[str, Any]) -> str | None:
    """The coverage gate's message for a traced record, or None."""
    metric = record["metrics"].get("harness.unattributed_frac")
    if metric is None or metric["value"] <= MAX_UNATTRIBUTED:
        return None
    return (
        f"{record['workload']}: {metric['value']:.1%} of traced wall time "
        f"is unattributed (the floor is {MAX_UNATTRIBUTED:.0%} at most)"
    )


def format_record(record: dict[str, Any]) -> str:
    """A human-readable table of one run's metrics."""
    lines = [
        f"{record['workload']}  seed={record['seed']}  "
        f"trace={int(record['trace'])}  attempted={record['attempted']}  "
        f"failed={record['failed']}"
    ]
    for metric, stats in record["summary"].items():
        unit = record["metrics"][metric]["unit"]
        lines.append(
            f"  {metric:<36} {stats['median']:>14.6g} {unit:<9} "
            f"[{stats['p25']:.6g} .. {stats['p75']:.6g}] n={stats['n']}"
        )
    for failure in record["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def append_record(path: Path, record: dict[str, Any]) -> None:
    """Add one run record to a results file (``{"runs": [...]}``)."""
    payload = json.loads(path.read_text()) if path.exists() else {"runs": []}
    payload["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
