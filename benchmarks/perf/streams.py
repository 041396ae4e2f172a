"""Stream-store microbenchmarks: ``python -m benchmarks.perf.streams``.

Three benchmarks time the stream session end to end:

* **stream-compile-vs-mmap** — one trap-driven ``sdet`` trial runs under
  a store-backed session, which writes back the prefixes the trial
  grew.  Then a fresh in-memory session generates those prefixes on
  demand, and a fresh session over a fresh :class:`StreamStore` maps
  them back, including the CRC check of each blob's first open.  This
  is the cold farm worker's choice: generate what it reads, or map it;
* **warm-snapshot-fork** — one trap-driven measurement window forked
  from a warm-state snapshot versus the same window reached by a full
  boot-and-replay of the warmup prefix;
* **streams-trials-fanout** — the headline number: N measurement trials
  sharing one warmed prefix, run cold (every trial boots and replays
  the warmup live) versus warm (streams generated on demand into the
  session's prefix memo, snapshot created once, trials forked).  The
  warm timing *includes* the generation and snapshot cost, so the
  speedup is what a sweep actually sees.  Miss counts are asserted
  bit-identical between the two paths.

Results are emitted as ``BENCH_PR5.json`` — same schema-versioned
envelope as ``BENCH_PR3.json`` (``suite`` differs) so the same tooling
reads both trajectories.  Run with::

    PYTHONPATH=src python -m benchmarks.perf.streams --budget quick \\
        --check-speedup 3

``--check-speedup X`` exits nonzero unless the trials-fanout speedup is
at least ``X``; CI gates on 3x at the quick budget.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.perf import (
    BENCH_REFS,
    BENCH_SCHEMA_VERSION,
    _record,
    _timed,
    speedup_of,
    write_bench,
)
from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven, run_warm_trials
from repro.streams import (
    StreamSession,
    StreamStore,
    WarmupPlan,
    activate,
    deactivate,
)
from repro.workloads import get_workload

#: default output location (next to BENCH_PR3.json)
DEFAULT_BENCH_PATH = Path(__file__).parent.parent / "results" / "BENCH_PR5.json"

_SEED = 1994
_WORKLOAD = "espresso"
#: the workload whose trial the compile-vs-mmap record reads
_TRIAL_WORKLOAD = "sdet"
#: trials sharing one warmed prefix; the warmup covers 15/16 of the
#: run, so the fan-out replays 8T refs cold against ~1.4T refs warm
_FANOUT_TRIALS = 8


def _config() -> TapewormConfig:
    return TapewormConfig(cache=CacheConfig(size_bytes=4096))


def _options(total_refs: int) -> RunOptions:
    return RunOptions(total_refs=total_refs, trial_seed=_SEED)


def _warmup(total_refs: int) -> WarmupPlan:
    return WarmupPlan(warmup_refs=(total_refs * 15) // 16, warmup_seed=_SEED)


# ---------------------------------------------------------------------------
# 1. compiling a stream vs memory-mapping it back
# ---------------------------------------------------------------------------

def bench_compile_vs_mmap(budget: str, store_dir: Path) -> dict:
    """On-demand generation vs a cold-process mmap of one trial's
    prefixes."""
    total_refs = BENCH_REFS[budget]
    spec = get_workload(_TRIAL_WORKLOAD)
    trial = StreamSession(store=StreamStore(store_dir))
    activate(trial)
    try:
        run_trap_driven(spec, _config(), _options(total_refs))
    finally:
        deactivate()  # writes the grown prefixes back to the store
    lengths = {
        task: len(trial.stream_for(spec, task).backing) for task in spec.tasks
    }
    lengths = {task: n for task, n in lengths.items() if n}

    def read(session: StreamSession) -> list:
        return [
            session.stream_for(spec, task).next_chunk(n)
            for task, n in lengths.items()
        ]

    generated, compile_secs = _timed(
        lambda: read(StreamSession(StreamStore(store_dir, enabled=False)))
    )
    # a fresh store re-verifies each blob's CRC, as a new process would
    mapping = StreamSession(StreamStore(store_dir))
    mapped, mmap_secs = _timed(lambda: read(mapping))
    assert mapping.store.hits == len(lengths) and mapping.compiles == 0
    assert all(np.array_equal(a, b) for a, b in zip(generated, mapped)), (
        "mapped prefixes differ from generated ones"
    )
    refs = sum(lengths.values())

    return _record(
        name="stream-compile-vs-mmap",
        configuration=(
            f"{_TRIAL_WORKLOAD}, {len(lengths)} task streams one "
            f"{total_refs}-ref trial grew"
        ),
        config={
            "workload": _TRIAL_WORKLOAD,
            "trial_refs": total_refs,
            "streams": len(lengths),
        },
        wall=compile_secs + mmap_secs,
        metrics={
            "compile_refs_per_sec": round(refs / max(compile_secs, 1e-9)),
            "mmap_refs_per_sec": round(refs / max(mmap_secs, 1e-9)),
        },
        results={
            "refs": refs,
            "streams": len(lengths),
            "blob_bytes": int(StreamStore(store_dir).stats()["blob_bytes"]),
            "compile_secs": round(compile_secs, 6),
            "mmap_secs": round(mmap_secs, 6),
            "speedup": round(compile_secs / max(mmap_secs, 1e-9), 2),
        },
    )


# ---------------------------------------------------------------------------
# 2. forking a warm snapshot vs replaying the warmup prefix
# ---------------------------------------------------------------------------

def bench_snapshot_fork(budget: str, store_dir: Path) -> dict:
    """One measurement window: snapshot fork vs full warmup replay."""
    total_refs = BENCH_REFS[budget]
    spec = get_workload(_WORKLOAD)
    config = _config()
    options = _options(total_refs)
    warmup = _warmup(total_refs)

    full_report, full_secs = _timed(
        lambda: run_trap_driven(spec, config, options, warmup=warmup)
    )
    session = StreamSession(store=StreamStore(store_dir))
    activate(session)
    try:
        # untimed priming run generates the streams and stores the snapshot
        run_trap_driven(spec, config, options, warmup=warmup)
        fork_report, fork_secs = _timed(
            lambda: run_trap_driven(spec, config, options, warmup=warmup)
        )
    finally:
        deactivate()
    assert fork_report.stats.total_misses == full_report.stats.total_misses, (
        "snapshot fork diverged from full replay"
    )

    return _record(
        name="warm-snapshot-fork",
        configuration=f"{_WORKLOAD}, {config.cache.describe()}, "
        f"warmup {warmup.warmup_refs}/{total_refs}",
        config=config,
        wall=full_secs + fork_secs,
        metrics={
            "full_refs_per_sec": round(total_refs / max(full_secs, 1e-9)),
            "fork_refs_per_sec": round(total_refs / max(fork_secs, 1e-9)),
        },
        results={
            "refs": total_refs,
            "warmup_refs": warmup.warmup_refs,
            "misses": full_report.stats.total_misses,
            "full_secs": round(full_secs, 6),
            "fork_secs": round(fork_secs, 6),
            "speedup": round(full_secs / max(fork_secs, 1e-9), 2),
        },
    )


# ---------------------------------------------------------------------------
# 3. the gated fan-out: N warm trials, cold path vs stream session
# ---------------------------------------------------------------------------

def bench_trials_fanout(budget: str, store_dir: Path) -> dict:
    """N trials off one warmed prefix, with and without the session.

    The warm timing starts from an empty store and session, so
    generation, write-back and snapshot-create costs are all inside the
    measured window — this is the first-sweep speedup, not the best
    case.
    """
    total_refs = BENCH_REFS[budget]
    spec = get_workload(_WORKLOAD)
    config = _config()
    options = _options(total_refs)
    warmup = _warmup(total_refs)

    cold_reports, cold_secs = _timed(
        lambda: run_warm_trials(
            spec, config, options, warmup, _FANOUT_TRIALS, base_seed=0
        )
    )

    def warm_run() -> list:
        activate(StreamSession(store=StreamStore(store_dir / "fanout")))
        try:
            return run_warm_trials(
                spec, config, options, warmup, _FANOUT_TRIALS, base_seed=0
            )
        finally:
            deactivate()  # the prefixes' write-back is inside the window

    warm_reports, warm_secs = _timed(warm_run)
    cold_misses = [report.stats.total_misses for report in cold_reports]
    warm_misses = [report.stats.total_misses for report in warm_reports]
    assert cold_misses == warm_misses, (
        f"fan-out diverged: {cold_misses} != {warm_misses}"
    )

    return _record(
        name="streams-trials-fanout",
        configuration=f"{_WORKLOAD}, {config.cache.describe()}, "
        f"{_FANOUT_TRIALS} trials, warmup {warmup.warmup_refs}/{total_refs}",
        config=config,
        wall=cold_secs + warm_secs,
        metrics={
            "cold_trials_per_sec": round(
                _FANOUT_TRIALS / max(cold_secs, 1e-9), 3
            ),
            "warm_trials_per_sec": round(
                _FANOUT_TRIALS / max(warm_secs, 1e-9), 3
            ),
        },
        results={
            "trials": _FANOUT_TRIALS,
            "refs": total_refs,
            "warmup_refs": warmup.warmup_refs,
            "misses": cold_misses,
            "cold_secs": round(cold_secs, 6),
            "warm_secs": round(warm_secs, 6),
            "speedup": round(cold_secs / max(warm_secs, 1e-9), 2),
        },
    )


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

def run_all(budget: str = "tiny") -> dict:
    """Run every stream benchmark; returns the BENCH_PR5 payload."""
    if budget not in BENCH_REFS:
        raise ValueError(
            f"unknown budget {budget!r}; choose from {sorted(BENCH_REFS)}"
        )
    tmp = Path(tempfile.mkdtemp(prefix="bench-streams-"))
    try:
        records: list[dict[str, Any]] = [
            bench_compile_vs_mmap(budget, tmp / "store"),
            bench_snapshot_fork(budget, tmp / "snap"),
            bench_trials_fanout(budget, tmp),
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "suite": "BENCH_PR5",
        "budget": budget,
        "records": records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.streams",
        description="stream store + snapshot microbenchmarks -> BENCH_PR5.json",
    )
    parser.add_argument(
        "--budget", choices=tuple(sorted(BENCH_REFS)), default="tiny"
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_BENCH_PATH), help="output JSON path"
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit nonzero unless the trials-fanout speedup is at least X",
    )
    args = parser.parse_args(argv)

    payload = run_all(args.budget)
    path = write_bench(payload, args.out, suite="BENCH_PR5")

    print(f"budget={args.budget} -> {path}")
    for record in payload["records"]:
        speedup = record["results"].get("speedup")
        extra = f"  speedup={speedup:g}x" if speedup is not None else ""
        wall = record["wall_clock_secs"]
        print(f"  {record['name']:<24} wall={wall:8.3f}s{extra}")

    if args.check_speedup is not None:
        achieved = speedup_of(payload, "streams-trials-fanout")
        if achieved < args.check_speedup:
            print(
                f"FAIL: trials-fanout speedup {achieved:g}x < "
                f"required {args.check_speedup:g}x",
                file=sys.stderr,
            )
            return 1
        print(f"trials-fanout speedup {achieved:g}x >= {args.check_speedup:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
