"""Command-line interface: ``python -m repro <command>``.

Commands (``python -m repro <command> --help`` lists a command's flags):

``run``          one trap-driven simulation with explicit parameters
``trace``        one Pixie+Cache2000 trace-driven simulation; ``trace merge``
                 folds Chrome trace files into one Perfetto-ready view
``reproduce``    regenerate a paper table or figure and print it
``sweep``        ``sweep grid``: a (sets x ways) LRU grid in one pass per
                 set count, bit-equal to running each configuration
``workloads``    the workload models and their Table 3/4 metadata
``profile``      fully-associative LRU miss ratios of one workload's streams
``assess-port``  the Table 12 port-feasibility reasoning for one processor
``farm``         inspect or clear the execution farm's result cache
``serve``        run a batch on the supervised, crash-recoverable farm service
``jobs``         list, retry or garbage-collect the service's job journal
``streams``      inspect, clear or pre-warm the compiled reference-stream store
``sample``       interval sampling: per-interval features, a phase-clustered
                 plan, or the sampled estimates in the manifest log
``telemetry``    inspect, validate or clear the run-manifest log; ``telemetry
                 top`` ranks the heaviest metric series
``chaos``        run a fault plan against the detected-or-absorbed contract,
                 or print the default plan as JSON to edit

A flag several commands share is declared once, on a parent parser, and
means the same on each.  ``--refs`` (a reference count) must be a
positive integer wherever it is accepted.

``run`` and ``reproduce`` also accept ``--fault-plan PLAN.json`` to
inject machine-plane faults (and, with ``--jobs``, worker faults) into
an ordinary simulation; without the flag the fault subsystem is inert
and results are bit-identical to a build without it.

``run``, ``reproduce`` and ``sweep grid`` accept ``--trace-out`` (the
run's timeline as Chrome ``trace_event`` JSON for Perfetto — with
``--jobs`` it carries one lane per farm worker), ``--metrics-out``
(metrics-registry snapshot JSON) and ``--manifest-out``; unless
``--no-manifest`` is given, every invocation appends a run-manifest
record next to the farm cache.  ``--trace-capacity`` bounds the
timeline per clock; ``telemetry.dropped`` counts what it refused.
``--profile`` additionally times the simulator's hot-path phases into
``profile.*`` histograms; results stay bit-identical.

``run``, ``trace``, ``reproduce``, ``sample`` and ``sweep grid`` use the
compiled reference-stream store (``.stream-cache/``) by default: each
workload's streams are materialized once and memory-mapped on every
later run, with results bit-identical to live generation.
``--no-stream-cache`` disables the store (streams still compile in
memory once per process and, with ``--jobs``, travel to workers over
shared memory).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro import faults, streams, telemetry
from repro._types import Component, Indexing
from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.gridsweep import grid_job, grid_rows
from repro.caches.stack import StackSimulator
from repro.core.tapeworm import TapewormConfig
from repro.errors import ConfigError, ReproError
from repro.experiments import BUDGET_REFS
from repro.farm import (
    DEFAULT_CACHE_DIR,
    CacheGC,
    Farm,
    FarmConfig,
    FarmService,
    Job,
    JobJournal,
    ResultCache,
    ServiceConfig,
    journal_pins,
)
from repro.farm.service import journal_rows
from repro.faults.infra import WorkerFaults
from repro.harness.runner import RunOptions, run_trace_driven, run_trap_driven
from repro.harness.tables import format_table
from repro.streams import StreamSession, StreamStore
from repro.streams.store import DEFAULT_STORE_DIR
from repro.workloads.registry import WORKLOAD_NAMES, all_workloads, get_workload

#: experiment name -> module under repro.experiments; the module's
#: ``run_<module>`` signature says whether it takes a budget and a farm,
#: and a ``run_<module>_sampled`` marks an interval-sampled variant
EXPERIMENTS = {
    "figure1": "figure1",
    "table3_4": "table34",
    "figure2": "figure2",
    "table5": "table5",
    "figure3": "figure3",
    "table6": "table6",
    "table7": "table7",
    "table8": "table8",
    "table9": "table9",
    "table10": "table10",
    "figure4": "figure4",
    "table11": "table11",
    "table12": "table12",
    "tlb_extension": "tlb_extension",
}


def _parse_size(text: str) -> int:
    """'4K' / '64K' / '1M' / plain bytes -> bytes."""
    text = text.strip().upper()
    multiplier = 1
    if text.endswith("K"):
        multiplier, text = 1024, text[:-1]
    elif text.endswith("M"):
        multiplier, text = 1024 * 1024, text[:-1]
    try:
        return int(text) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from None


def _positive_int(text: str) -> int:
    """A reference count: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """'64,128,256' -> (64, 128, 256)."""
    try:
        values = tuple(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list: {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return values


def _components(names: str) -> frozenset[Component]:
    if names == "all":
        return frozenset(Component)
    mapping = {
        "user": Component.USER,
        "kernel": Component.KERNEL,
        "bsd": Component.BSD_SERVER,
        "x": Component.X_SERVER,
    }
    try:
        return frozenset(mapping[n] for n in names.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(
            f"unknown component {exc.args[0]!r}; use user,kernel,bsd,x or all"
        ) from None


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: flags declared once and shared via ``parents=``
    (without its own ``-h``, which would clash with the child's)."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    # -- flags several commands share, each declared once --------------
    json_flag = _flags()
    json_flag.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of the text view",
    )
    cache_dir = _flags()
    cache_dir.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="farm result cache and job journal directory "
             "(default %(default)s/)",
    )
    manifest_path = _flags()
    manifest_path.add_argument(
        "--manifest-path", default=telemetry.DEFAULT_MANIFEST_PATH,
        metavar="PATH", help="run-manifest log (default %(default)s)",
    )
    workload = _flags()
    workload.add_argument("--workload", choices=WORKLOAD_NAMES, default="mpeg_play")
    seed = _flags()
    seed.add_argument("--seed", type=int, default=0)
    indexing = _flags()
    indexing.add_argument(
        "--indexing", choices=("physical", "virtual"), default="physical"
    )
    budget = _flags()
    budget.add_argument(
        "--budget", choices=tuple(sorted(BUDGET_REFS)), default="quick",
        help="named reference budget",
    )
    budget_refs = _flags(budget)
    budget_refs.add_argument(
        "--refs", type=_positive_int, default=None, metavar="N",
        help="explicit reference budget (overrides --budget)",
    )
    store_dir = _flags()
    store_dir.add_argument(
        "--stream-dir", default=DEFAULT_STORE_DIR, metavar="DIR",
        help="stream store directory (default %(default)s/)",
    )
    stream_flags = _flags(store_dir)
    stream_flags.add_argument(
        "--no-stream-cache", action="store_true",
        help="do not persist compiled reference streams to disk "
             "(results are identical; streams recompile per process)",
    )
    no_cache = _flags()
    no_cache.add_argument(
        "--no-cache", action="store_true",
        help="bypass the farm's result cache",
    )
    fault_plan = _flags()
    fault_plan.add_argument(
        "--fault-plan", metavar="PLAN.json", default=None,
        help="inject the plan's machine-plane faults into every trial "
             "(and its worker faults into a --jobs farm), auditing the "
             "trap invariant at the plan's cadence",
    )
    interval_refs = _flags()
    interval_refs.add_argument(
        "--interval-refs", type=int, default=None, metavar="N",
        help="references per sampling interval "
             "(default: budget/32, floored at one scheduler chunk)",
    )
    max_phases = _flags()
    max_phases.add_argument(
        "--max-phases", type=int, default=4, metavar="K",
        help="phase-count ceiling for the BIC model selection",
    )
    gc = _flags()
    gc.add_argument(
        "--stream-dir", default=None, metavar="DIR",
        help="also collect this stream-store directory",
    )
    gc.add_argument(
        "--shard", action="store_true",
        help="migrate the stream tier into two-level shard dirs during GC",
    )
    tele = _flags()
    group = tele.add_argument_group("telemetry")
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the run's timeline (simulated-machine traps, farm jobs, "
             "spans) as Chrome trace_event JSON (open in Perfetto; '-' for "
             "stdout)",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics-registry snapshot as JSON ('-' for stdout)",
    )
    group.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="run-manifest JSONL log (default: "
             f"{telemetry.DEFAULT_MANIFEST_PATH}; '-' for stdout)",
    )
    group.add_argument(
        "--no-manifest", action="store_true",
        help="do not append a run-manifest record",
    )
    group.add_argument(
        "--trace-capacity", type=int, default=telemetry.DEFAULT_TRACE_CAPACITY,
        metavar="N",
        help="timeline records kept per clock (simulated and wall); later "
             "records are dropped and counted in telemetry.dropped",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="time the simulator's hot-path phases into profile.* "
             "histograms and span events (results stay bit-identical; "
             "implies an active telemetry session)",
    )
    trial = _flags(workload, stream_flags)
    trial.add_argument("--cache-size", type=_parse_size, default=4096)
    trial.add_argument("--line-bytes", type=int, default=16)
    trial.add_argument("--associativity", type=int, default=1)
    trial.add_argument("--refs", type=_positive_int, default=300_000)

    # -- commands; each leaf binds its handler -------------------------
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tapeworm II (ASPLOS 1994) reproduction toolkit",
    )
    sub = parser.add_subparsers(required=True)

    run = sub.add_parser(
        "run", parents=[trial, indexing, seed, fault_plan, tele],
        help="one trap-driven simulation",
    )
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--structure", choices=("cache", "tlb"), default="cache")
    run.add_argument("--tlb-entries", type=int, default=64)
    run.add_argument("--page-bytes", type=_parse_size, default=4096)
    run.add_argument("--replacement", default="lru")
    run.add_argument("--sampling", type=int, default=1, metavar="K")
    run.add_argument(
        "--simulate", type=_components, default=frozenset(Component),
        help="components to register: comma list of user,kernel,bsd,x or 'all'",
    )

    trace = sub.add_parser(
        "trace", parents=[trial],
        help="one Pixie+Cache2000 simulation, or 'trace merge' to "
             "combine Chrome trace files",
    )
    trace.set_defaults(handler=_cmd_trace)
    trace.add_argument("--sampling", type=int, default=1)
    t_merge = trace.add_subparsers().add_parser(
        "merge",
        help="merge Chrome trace_event files (e.g. several runs' "
             "--trace-out) into one, lanes kept apart",
    )
    t_merge.set_defaults(handler=_cmd_trace_merge)
    t_merge.add_argument(
        "inputs", nargs="+", metavar="TRACE.json",
        help="Chrome trace files to merge",
    )
    t_merge.add_argument(
        "--out", default="-", metavar="PATH",
        help="merged trace destination (default: stdout)",
    )

    reproduce = sub.add_parser(
        "reproduce",
        parents=[
            budget, no_cache, fault_plan, interval_refs, max_phases,
            stream_flags, tele,
        ],
        help="regenerate a paper table/figure",
    )
    reproduce.set_defaults(handler=_cmd_reproduce)
    reproduce.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"]
    )
    reproduce.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run multi-trial experiments on an N-worker farm "
             "(with result caching; default: serial, no farm)",
    )
    reproduce.add_argument(
        "--sample-mode", choices=("exact", "sampled"), default="exact",
        help="'sampled' runs supporting experiments (table7) through "
             "repro.sampling: only representative intervals are simulated "
             "and every result is an estimate with a 95%% CI "
             "(incompatible with --fault-plan)",
    )

    farm_sub = sub.add_parser(
        "farm", help="execution-farm cache utilities"
    ).add_subparsers(required=True)
    farm_sub.add_parser(
        "stats", parents=[cache_dir, json_flag],
        help="show cache contents and counters",
    ).set_defaults(handler=_cmd_farm_stats)
    farm_sub.add_parser(
        "clear", parents=[cache_dir], help="drop every cached result"
    ).set_defaults(handler=_cmd_farm_clear)

    streams_sub = sub.add_parser(
        "streams", help="compiled reference-stream store utilities"
    ).add_subparsers(required=True)
    streams_sub.add_parser(
        "stats", parents=[store_dir, json_flag],
        help="show stored blobs and byte totals",
    ).set_defaults(handler=_cmd_streams_stats)
    streams_sub.add_parser(
        "clear", parents=[store_dir],
        help="drop every compiled stream blob",
    ).set_defaults(handler=_cmd_streams_clear)
    s_warm = streams_sub.add_parser(
        "warm", parents=[budget_refs, store_dir],
        help="generate workload streams to the budget into the store",
    )
    s_warm.set_defaults(handler=_cmd_streams_warm)
    s_warm.add_argument(
        "--workload", default="all",
        choices=tuple(WORKLOAD_NAMES) + ("all",),
        help="workload to compile (default: all registered workloads)",
    )
    s_warm.add_argument(
        "--data", action="store_true",
        help="also compile the data-interleaved (TLB) stream variants",
    )

    tele_sub = sub.add_parser(
        "telemetry", help="run-manifest and telemetry utilities"
    ).add_subparsers(required=True)
    manifests = tele_sub.add_parser(
        "manifests", parents=[manifest_path, json_flag],
        help="list recorded run manifests",
    )
    manifests.set_defaults(handler=_cmd_telemetry_manifests)
    manifests.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="show only the most recent N records",
    )
    tele_sub.add_parser(
        "validate", parents=[manifest_path],
        help="schema-check every record in the manifest log",
    ).set_defaults(handler=_cmd_telemetry_validate)
    top = tele_sub.add_parser(
        "top", parents=[manifest_path, json_flag],
        help="rank metric series by weight (histograms by total, "
             "counters by value) from a snapshot or the manifest log",
    )
    top.set_defaults(handler=_cmd_telemetry_top)
    top.add_argument(
        "--metrics", default=None, metavar="SNAPSHOT.json",
        help="metrics snapshot (a --metrics-out file); default: the "
             "latest manifest record's metrics block",
    )
    top.add_argument(
        "--prefix", default="", metavar="NAME",
        help="only series whose key starts with NAME (e.g. 'profile.')",
    )
    top.add_argument(
        "-n", "--limit", type=int, default=20, metavar="N",
        help="show the top N series (default 20)",
    )
    tele_sub.add_parser(
        "clear", parents=[manifest_path], help="drop the run-manifest log"
    ).set_defaults(handler=_cmd_telemetry_clear)

    chaos_sub = sub.add_parser(
        "chaos", help="fault-injection runs and plan utilities"
    ).add_subparsers(required=True)
    chaos_run = chaos_sub.add_parser(
        "run", parents=[workload, seed, json_flag],
        help="execute a fault plan; exit non-zero on any silent fault",
    )
    chaos_run.set_defaults(handler=_cmd_chaos_run)
    chaos_run.add_argument(
        "--plan", metavar="PLAN.json", default=None,
        help="fault plan to execute (default: the built-in default plan)",
    )
    chaos_run.add_argument(
        "--refs", type=_positive_int, default=None, metavar="N",
        help="trap-driven budget per machine-plane fault class",
    )
    chaos_run.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="also write the full report as JSON ('-' for stdout)",
    )
    chaos_sub.add_parser(
        "plan", help="print the default fault plan as editable JSON"
    ).set_defaults(handler=_cmd_chaos_plan)

    serve = sub.add_parser(
        "serve", parents=[cache_dir, gc, json_flag],
        help="run a batch through the supervised, crash-recoverable farm "
             "service (journal + supervisor + GC)",
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument(
        "--measure", default="chaos.probe", metavar="NAME",
        help="registered measure every job runs (default: the chaos probe)",
    )
    serve.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="submit one job per seed 0..N-1 (0 = no new batch, "
             "e.g. a resume-only invocation)",
    )
    serve.add_argument(
        "--params", default=None, metavar="JSON",
        help="JSON object of keyword params passed to every job's measure",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, metavar="W",
        help="pool worker processes (default 2)",
    )
    serve.add_argument(
        "--client", default="cli", metavar="ID",
        help="client id recorded in the journal",
    )
    serve.add_argument(
        "--batch", default="", metavar="LABEL",
        help="batch label recorded in the journal",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="first replay unfinished journaled work from a previous "
             "(possibly SIGKILLed) service run, exactly once",
    )
    serve.add_argument(
        "--cache-budget", type=int, default=None, metavar="BYTES",
        help="after the batch, GC every cache tier down to BYTES per "
             "tier (journal-leased entries are pinned)",
    )
    serve.add_argument(
        "--compact", action="store_true",
        help="drop retired (done) journal entries after the run",
    )

    jobs_sub = sub.add_parser(
        "jobs", help="job-journal utilities (list, retry, gc)"
    ).add_subparsers(required=True)
    j_list = jobs_sub.add_parser(
        "list", parents=[cache_dir, json_flag],
        help="show the journal's job table",
    )
    j_list.set_defaults(handler=_cmd_jobs_list)
    j_list.add_argument(
        "--state", default=None,
        choices=("queued", "leased", "done", "failed", "poisoned"),
        help="only jobs in this state",
    )
    jobs_sub.add_parser(
        "retry", parents=[cache_dir, json_flag],
        help="requeue every failed/poisoned job and re-run it serially",
    ).set_defaults(handler=_cmd_jobs_retry)
    j_gc = jobs_sub.add_parser(
        "gc", parents=[cache_dir, gc, json_flag],
        help="size-budgeted cache GC with journal pins held",
    )
    j_gc.set_defaults(handler=_cmd_jobs_gc)
    j_gc.add_argument(
        "--cache-budget", type=int, required=True, metavar="BYTES",
        help="per-tier byte budget (0 = evict everything unpinned)",
    )

    sample_sub = sub.add_parser(
        "sample", help="interval-sampling utilities (profile, plan, stats)"
    ).add_subparsers(required=True)
    sample_flags = [workload, budget_refs, interval_refs, json_flag, stream_flags]
    sample_sub.add_parser(
        "profile", parents=sample_flags,
        help="per-interval feature vectors of one workload",
    ).set_defaults(handler=_cmd_sample_profile)
    sm_plan = sample_sub.add_parser(
        "plan", parents=[*sample_flags, max_phases, seed],
        help="cluster a profile into phases and select intervals",
    )
    sm_plan.set_defaults(handler=_cmd_sample_plan)
    sm_plan.add_argument(
        "--per-phase", type=int, default=3, metavar="M",
        help="sampled intervals per phase (centroid + M-1 random)",
    )
    sm_plan.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the plan as JSON ('-' for stdout)",
    )
    sample_sub.add_parser(
        "stats", parents=[manifest_path, json_flag],
        help="summarize sampled-run estimates in the manifest log",
    ).set_defaults(handler=_cmd_sample_stats)

    sw_grid = sub.add_parser(
        "sweep", help="one-pass multi-configuration sweeps"
    ).add_subparsers(required=True).add_parser(
        "grid",
        parents=[
            workload, indexing, budget_refs, seed, no_cache, json_flag,
            stream_flags, tele,
        ],
        help="all-associativity (sets × ways) LRU grid from one "
             "stack-distance pass per set count, bit-equal to running "
             "every configuration separately",
    )
    sw_grid.set_defaults(handler=_cmd_sweep_grid)
    sw_grid.add_argument(
        "--sets", type=_int_list, default=(64, 128, 256, 512),
        metavar="S1,S2,...", help="power-of-two set counts (grid rows)",
    )
    sw_grid.add_argument(
        "--ways", type=_int_list, default=(1, 2, 4, 8),
        metavar="A1,A2,...",
        help="power-of-two associativities (grid columns)",
    )
    sw_grid.add_argument(
        "--line", type=_parse_size, default=16, metavar="BYTES",
        help="line size (default 16)",
    )
    sw_grid.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="farm workers for the (single) sweep job; 1 runs in-process",
    )

    sub.add_parser(
        "workloads", help="list workload models"
    ).set_defaults(handler=_cmd_workloads)

    profile = sub.add_parser(
        "profile", help="locality profile of one workload's streams"
    )
    profile.set_defaults(handler=_cmd_profile)
    profile.add_argument("workload", choices=WORKLOAD_NAMES)
    profile.add_argument("--refs", type=_positive_int, default=60_000)

    assess = sub.add_parser(
        "assess-port", help="Table 12 feasibility for one processor"
    )
    assess.set_defaults(handler=_cmd_assess_port)
    assess.add_argument("processor")

    return parser


# ---------------------------------------------------------------------------
# session plumbing shared by the simulation commands
# ---------------------------------------------------------------------------


def _write_or_print(target: str, payload: str) -> None:
    if target == "-":
        print(payload)
    else:
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload + "\n")


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    """Whether any telemetry output was asked for (commands without
    the telemetry flags never ask)."""
    return hasattr(args, "trace_capacity") and bool(
        args.trace_out or args.metrics_out or args.manifest_out
        or args.profile or not args.no_manifest
    )


@dataclasses.dataclass
class _Scope:
    """The sessions one simulation command activated (None: not wanted)."""

    streams: Any
    telemetry: telemetry.TelemetrySession | None = None
    faults: Any = None

    def snapshot(self) -> dict[str, Any]:
        """Metrics for a manifest or ``--metrics-out``, with the stream
        counters and the timeline's drops published first (both
        delta-based); empty without telemetry."""
        if self.telemetry is None:
            return {}
        self.streams.publish_metrics(self.telemetry.metrics)
        return self.telemetry.snapshot()


@contextmanager
def _sessions(args: argparse.Namespace, fault_plan=None) -> Iterator[_Scope]:
    """Activate a simulation command's stream, telemetry and fault
    sessions; on any exit, deactivate whatever was activated.

    Streams are on by default: compiled streams are bit-identical to
    live generation and strictly faster on reuse.  ``--no-stream-cache``
    keeps the session but disables the on-disk store, so nothing
    persists (the farm's ``--no-cache`` governs the independent *result*
    cache).
    """
    store = StreamStore(args.stream_dir, enabled=not args.no_stream_cache)
    with ExitStack() as stack:
        scope = _Scope(streams.activate(StreamSession(store=store)))
        stack.callback(streams.deactivate)
        if _telemetry_wanted(args):
            scope.telemetry = telemetry.activate(
                telemetry.TelemetrySession(
                    trace_capacity=args.trace_capacity, profile=args.profile
                )
            )
            stack.callback(telemetry.deactivate)
        if fault_plan is not None:
            scope.faults = faults.activate(fault_plan)
            stack.callback(faults.deactivate)
        yield scope


def _export_telemetry(
    args: argparse.Namespace,
    scope: _Scope,
    manifests: Sequence[telemetry.RunManifest],
) -> None:
    """Write the metrics snapshot, the timeline and the manifest records."""
    if scope.telemetry is None:
        return
    if args.metrics_out:
        _write_or_print(
            args.metrics_out,
            json.dumps(scope.snapshot(), indent=2, sort_keys=True),
        )
    if args.trace_out:
        _write_or_print(
            args.trace_out,
            json.dumps(telemetry.merged_chrome_trace(scope.telemetry)),
        )
    if args.no_manifest:
        return
    for manifest in manifests:
        if args.manifest_out == "-":
            print(json.dumps(manifest.record(), sort_keys=True))
        else:
            telemetry.write_manifest(manifest, args.manifest_out)


def _load_fault_plan(args: argparse.Namespace):
    """The plan named by ``--fault-plan``, or None when faults are off."""
    return None if args.fault_plan is None else faults.load_plan(args.fault_plan)


def _print_fault_summary(session) -> None:
    """One line per run: what landed, what the auditor saw."""
    for record in session.runs:
        applied = record.injector.injections_applied()
        divergences = record.divergences()
        # a persistent divergence re-reports every audit; show each once
        unique: dict[tuple, Any] = {}
        for divergence in divergences:
            key = (divergence.kind, divergence.granule, divergence.tid,
                   divergence.vpn)
            unique.setdefault(key, divergence)
        print(
            f"faults        : {applied} injected, "
            f"{len(record.reports)} audit(s), "
            f"{len(divergences)} divergence(s) "
            f"({len(unique)} distinct)"
        )
        for divergence in unique.values():
            print(f"  divergence  : {divergence.describe()}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    if args.structure == "tlb":
        config = TapewormConfig(
            structure="tlb",
            tlb=TLBConfig(
                n_entries=args.tlb_entries, page_bytes=args.page_bytes
            ),
            replacement=args.replacement,
            sampling=args.sampling,
            sampling_seed=args.seed,
        )
    else:
        config = TapewormConfig(
            cache=CacheConfig(
                size_bytes=args.cache_size,
                line_bytes=args.line_bytes,
                associativity=args.associativity,
                indexing=Indexing(args.indexing),
            ),
            replacement=args.replacement,
            sampling=args.sampling,
            sampling_seed=args.seed,
        )
    options = RunOptions(
        total_refs=args.refs,
        trial_seed=args.seed,
        simulate=args.simulate,
        include_data_refs=args.structure == "tlb",
    )
    with _sessions(args, _load_fault_plan(args)) as scope:
        started = time.perf_counter()
        report = run_trap_driven(spec, config, options)
        elapsed = time.perf_counter() - started
    manifest = telemetry.RunManifest(
        kind="run",
        name=report.workload,
        configuration=report.configuration,
        config_hash=telemetry.config_hash(config),
        seed=args.seed,
        wall_clock_secs=elapsed,
        metrics=scope.snapshot(),
        results={
            "misses": report.stats.total_misses,
            "estimated_misses": report.estimated_misses,
            "slowdown": report.slowdown,
            "overhead_cycles": report.overhead_cycles,
            "traps": report.traps,
            "page_faults": report.page_faults,
            "ticks": report.ticks,
        },
    )
    print(f"workload      : {report.workload}")
    print(f"configuration : {report.configuration}")
    print(f"references    : {report.total_refs:,}")
    print(f"misses        : {report.stats.total_misses:,}")
    if report.sampling > 1:
        print(f"estimated     : {report.estimated_misses:,.0f} (x{report.sampling})")
    for component in Component:
        print(
            f"  {component.value:<12}: {report.stats.misses[component]:>8,} "
            f"(local ratio {report.local_miss_ratio(component):.4f})"
        )
    print(f"slowdown      : {report.slowdown:.2f}x")
    print(f"paper scale   : {report.misses_paper_scale() / 1e6:.2f}M misses")
    if scope.faults is not None:
        _print_fault_summary(scope.faults)
    _export_telemetry(args, scope, [manifest])
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    """Merge several Chrome trace files into one Perfetto-ready view."""
    payloads = []
    for name in args.inputs:
        try:
            payload = json.loads(Path(name).read_text())
            if not isinstance(payload, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            print(f"error: cannot read {name}: {exc}", file=sys.stderr)
            return 2
        payloads.append(payload)
    merged = telemetry.merge_chrome_traces(payloads)
    _write_or_print(args.out, json.dumps(merged))
    if args.out != "-":
        print(
            f"merged {len(payloads)} trace(s), "
            f"{len(merged['traceEvents'])} event(s) -> {args.out}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    config = CacheConfig(
        size_bytes=args.cache_size,
        line_bytes=args.line_bytes,
        associativity=args.associativity,
    )
    with _sessions(args):
        report = run_trace_driven(
            spec, config, args.refs, sampling=args.sampling
        )
    print(f"workload      : {report.workload}")
    print(f"configuration : {report.configuration}")
    print(f"refs traced   : {report.refs_traced:,}")
    print(f"misses        : {report.misses:,}")
    print(f"miss ratio    : {report.miss_ratio:.4f}")
    print(f"slowdown      : {report.slowdown:.2f}x")
    return 0


def _reproduce_one(
    name: str, args: argparse.Namespace, farm=None
) -> dict[str, dict] | None:
    """Run and print one experiment; returns its ``estimates`` block
    (manifest schema v2) for sampled runs, None for exact ones.

    The experiment's module says how to run it: whether ``run_<module>``
    takes a budget and a farm, and whether a ``run_<module>_sampled``
    variant exists for ``--sample-mode sampled``."""
    stem, budget = EXPERIMENTS[name], args.budget
    module = importlib.import_module(f"repro.experiments.{stem}")
    run_sampled = getattr(module, f"run_{stem}_sampled", None)
    if args.sample_mode == "sampled" and run_sampled is not None:
        result = run_sampled(
            budget,
            farm=farm,
            interval_refs=args.interval_refs,
            max_phases=args.max_phases,
        )
        print(module.render_sampled(result))
        return {
            f"{workload}.{metric}": estimate.to_manifest()
            for workload, sampled in sorted(result.results.items())
            for metric, estimate in sorted(sampled.estimates.items())
        }
    runner = getattr(module, f"run_{stem}")
    takes = inspect.signature(runner).parameters
    if "budget" not in takes:
        result = runner()
    elif farm is not None and "farm" in takes:
        result = runner(budget, farm=farm)
    else:
        result = runner(budget)
    print(module.render(result))
    return None


def _build_farm(args: argparse.Namespace, fault_plan, stream_session):
    if args.jobs is None:
        return None
    worker_faults = None
    if fault_plan is not None:
        worker_faults = WorkerFaults.from_plan(fault_plan)
    return Farm(
        FarmConfig(
            max_workers=args.jobs,
            use_cache=not args.no_cache,
            worker_faults=worker_faults,
            stream_transport=stream_session.transport(),
        )
    )


def _cmd_reproduce(args: argparse.Namespace) -> int:
    fault_plan = _load_fault_plan(args)
    if args.sample_mode == "sampled" and fault_plan is not None:
        raise ConfigError(
            "--sample-mode sampled is incompatible with --fault-plan: "
            "fault experiments must simulate every reference "
            "(injected faults mutate shared warm state)"
        )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    manifests = []
    with _sessions(args, fault_plan) as scope:
        farm = _build_farm(args, fault_plan, scope.streams)
        for name in names:
            started = time.perf_counter()
            estimates = _reproduce_one(name, args, farm)
            if args.experiment == "all":
                print()
            results: dict[str, Any] = {
                "experiment": name,
                "budget": args.budget,
                "budget_refs": BUDGET_REFS.get(args.budget, 0),
            }
            if estimates is not None:
                results["sample_mode"] = "sampled"
            if farm is not None and farm.last_run is not None:
                results["farm"] = farm.last_run.summary()
            manifests.append(
                telemetry.RunManifest(
                    kind="experiment",
                    name=name,
                    configuration=f"budget={args.budget}"
                    + (", interval-sampled" if estimates is not None else ""),
                    config_hash=telemetry.config_hash(
                        {"experiment": name, "budget": args.budget}
                    ),
                    seed=0,
                    wall_clock_secs=time.perf_counter() - started,
                    metrics=scope.snapshot(),
                    results=results,
                    estimates=estimates,
                )
            )
    if farm is not None and farm.metrics.jobs:
        print(f"farm ({farm.config.max_workers} workers)")
        print(farm.metrics.render())
    if scope.faults is not None and scope.faults.runs:
        _print_fault_summary(scope.faults)
    _export_telemetry(args, scope, manifests)
    return 0


def _valid_records(path) -> list[dict[str, Any]]:
    """The manifest log's records that pass ``validate_record``; how
    many it skipped goes to stderr."""
    records = telemetry.read_manifests(path)
    valid = [r for r in records if not telemetry.validate_record(r)]
    if len(valid) < len(records):
        print(
            f"skipped {len(records) - len(valid)} invalid record(s) in "
            f"{path}; 'repro telemetry validate' names them",
            file=sys.stderr,
        )
    return valid


def _created(record: Mapping[str, Any]) -> str:
    return time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(record["created_unix"])
    )


def _renderable(value: Any) -> bool:
    """A number, or a histogram whose shown fields are numbers."""
    if isinstance(value, Mapping):
        return all(
            isinstance(value.get(key, 0), (int, float))
            for key in ("count", "sum", "mean", "p90")
        )
    return isinstance(value, (int, float))


def _metric_weight(value: Any) -> float:
    """The ranking weight of one renderable snapshot entry: histogram
    total (time spent), else the scalar counter/gauge value."""
    if isinstance(value, Mapping):
        return float(value.get("sum", 0.0))
    return float(value)


def _cmd_telemetry_top(args: argparse.Namespace) -> int:
    """Rank the heaviest metric series — where the run's time/volume went."""
    if args.metrics:
        try:
            snapshot = json.loads(Path(args.metrics).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.metrics}: {exc}", file=sys.stderr)
            return 2
        source = args.metrics
    else:
        records = _valid_records(args.manifest_path)
        if not records:
            print(f"no manifest records in {args.manifest_path}", file=sys.stderr)
            return 2
        snapshot = records[-1]["metrics"]
        source = f"{args.manifest_path} (latest record: {records[-1]['name']})"
    if not isinstance(snapshot, Mapping):
        print(f"error: {source} holds no metrics object", file=sys.stderr)
        return 2
    selected = sorted(
        (
            (key, value)
            for key, value in snapshot.items()
            if key.startswith(args.prefix) and _renderable(value)
        ),
        key=lambda item: _metric_weight(item[1]),
        reverse=True,
    )[: max(args.limit, 0) or None]
    if args.json:
        print(json.dumps(dict(selected), indent=2, sort_keys=True))
        return 0
    if not selected:
        print(f"no series matching prefix {args.prefix!r} in {source}")
        return 0
    rows = []
    for key, value in selected:
        if isinstance(value, Mapping):
            rows.append(
                [
                    key, "histogram", value.get("count", 0),
                    f"{value.get('sum', 0.0):,.6g}",
                    f"{value.get('mean', 0.0):,.6g}",
                    f"{value.get('p90', 0.0):,.6g}",
                ]
            )
        else:
            rows.append([key, "scalar", "", f"{value:,.6g}", "", ""])
    print(
        format_table(
            ["Series", "Kind", "Count", "Total", "Mean", "P90"],
            rows,
            title=f"Top metric series ({source})",
        )
    )
    return 0


def _cmd_telemetry_clear(args: argparse.Namespace) -> int:
    target = Path(args.manifest_path)
    count = len(telemetry.read_manifests(target))
    if target.exists():
        target.unlink()
    print(f"dropped {count} manifest record(s) from {target}")
    return 0


def _cmd_telemetry_validate(args: argparse.Namespace) -> int:
    records = telemetry.read_manifests(args.manifest_path)
    bad = 0
    for i, record in enumerate(records):
        problems = telemetry.validate_record(record)
        if problems:
            bad += 1
            print(f"record {i}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{len(records)} record(s), {len(records) - bad} valid, {bad} invalid")
    return 1 if bad else 0


def _cmd_telemetry_manifests(args: argparse.Namespace) -> int:
    """The durable perf trajectory, newest last; the JSON view is raw."""
    path = args.manifest_path
    records = (telemetry.read_manifests if args.json else _valid_records)(path)
    records = records[-args.last :] if args.last > 0 else records
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    if not records:
        print(f"no manifest records in {path}")
        return 0
    rows = []
    for record in records:
        slowdown = record["results"].get("slowdown")
        rows.append(
            [
                _created(record),
                record["kind"],
                record["name"],
                record["config_hash"][:8],
                record["seed"],
                f"{record['wall_clock_secs']:.2f}s",
                f"{slowdown:.2f}x" if isinstance(slowdown, (int, float)) else "-",
                record["git_version"],
            ]
        )
    print(
        format_table(
            ["When", "Kind", "Name", "Config", "Seed", "Wall", "Slowdown", "Git"],
            rows,
            title=f"Run manifests ({path})",
        )
    )
    return 0


def _cmd_farm_clear(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    dropped = cache.clear()
    print(f"dropped {dropped} cached result(s) from {cache.directory}/")
    return 0


def _cmd_farm_stats(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    stats = cache.read_stats()
    per_measure: dict[str, int] = {}
    for entry in cache.entries():
        measure = entry.get("measure") or "?"
        per_measure[measure] = per_measure.get(measure, 0) + 1
    if args.json:
        print(
            json.dumps(
                {
                    "cache_dir": str(cache.directory),
                    "stored_results": len(cache),
                    "per_measure": per_measure,
                    **stats,
                },
                indent=2, sort_keys=True,
            )
        )
        return 0
    print(f"cache dir     : {cache.directory}/")
    print(f"stored results: {len(cache)}")
    for measure in sorted(per_measure):
        print(f"  {measure:<16}: {per_measure[measure]}")
    print(f"farm runs     : {stats['runs']}")
    print(f"jobs seen     : {stats['jobs']}")
    print(f"cache hits    : {stats['cache_hits']}")
    print(f"executed      : {stats['executed']}")
    print(f"retries       : {stats['retries']}")
    print(f"corrupt       : {stats['cache_corrupt']}")
    print(f"wall clock    : {stats['wall_clock_secs']:.3f}s")
    return 0


def _total_refs(args: argparse.Namespace) -> int:
    """The reference budget: ``--refs`` when given, else ``--budget``'s."""
    return args.refs if args.refs is not None else BUDGET_REFS[args.budget]


def _cmd_streams_clear(args: argparse.Namespace) -> int:
    store = StreamStore(args.stream_dir)
    dropped = store.clear()
    print(f"dropped {dropped} compiled stream(s) from {store.directory}/")
    return 0


def _cmd_streams_warm(args: argparse.Namespace) -> int:
    store = StreamStore(args.stream_dir)
    refs = _total_refs(args)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    session = StreamSession(store=store)
    for name in names:
        spec = get_workload(name)
        for data in (False, True) if args.data else (False,):
            for task_name in spec.tasks:
                session.stream_for(spec, task_name, data).next_chunk(refs)
    session.write_back()
    stats = store.stats()
    print(
        f"warmed {len(names)} workload(s) at {refs:,} refs: "
        f"{session.compiles} stream(s) compiled, "
        f"{session.memo_hits + store.hits} reused"
    )
    print(
        f"store now holds {stats['blobs']} blob(s), "
        f"{stats['blob_bytes'] / 1e6:.1f} MB"
    )
    return 0


def _cmd_streams_stats(args: argparse.Namespace) -> int:
    stats = StreamStore(args.stream_dir).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store dir     : {stats['directory']}/")
    print(f"blobs         : {stats['blobs']}")
    print(f"blob bytes    : {stats['blob_bytes']:,}")
    print(f"compiled refs : {stats['compiled_refs']:,}")
    print(f"quarantined   : {stats['quarantined']}")
    return 0


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    """One-pass grid sweep: one cached farm job, every cell's misses."""
    grid = GridConfig(
        set_counts=tuple(args.sets),
        ways=tuple(args.ways),
        line_bytes=args.line,
        indexing=Indexing(args.indexing),
    )
    total_refs = _total_refs(args)
    with _sessions(args) as scope:
        started = time.perf_counter()
        farm = Farm(
            FarmConfig(
                max_workers=max(1, args.jobs),
                use_cache=not args.no_cache,
                stream_transport=scope.streams.transport(),
            )
        )
        job = grid_job(args.workload, total_refs, grid, seed=args.seed)
        payload = farm.run_jobs([job])[0]
        elapsed = time.perf_counter() - started

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        miss_counts = payload["miss_counts"]
        rows = []
        for n_sets in grid.set_counts:
            row: list[Any] = [n_sets]
            for ways in grid.ways:
                row.append(f"{miss_counts[f'{n_sets}x{ways}']:,}")
            rows.append(row)
        print(format_table(
            ["sets \\ ways", *[str(w) for w in grid.ways]],
            rows,
            title=(
                f"{args.workload}: exact misses over {payload['refs']:,} "
                f"refs ({grid.describe()})"
            ),
        ))
        hist = payload["stack_distance_hist"]
        largest = str(grid.set_counts[-1])
        print(
            f"passes        : {payload['passes']} distance passes for "
            f"{grid.n_cells} configurations"
        )
        print(
            f"cold misses   : {hist[largest]['cold']:,} "
            f"(compulsory, geometry-independent)"
        )
        print(f"wall clock    : {elapsed:.2f}s")
        if farm.last_run is not None:
            print(f"farm ({farm.config.max_workers} worker(s))")
            print(farm.last_run.render())

    manifest = telemetry.RunManifest(
        kind="sweep",
        name="grid",
        configuration=(
            f"{args.workload}, {grid.describe()}, refs={total_refs}"
        ),
        config_hash=telemetry.config_hash(
            {
                "workload": args.workload,
                "total_refs": total_refs,
                "set_counts": list(grid.set_counts),
                "ways": list(grid.ways),
                "line_bytes": grid.line_bytes,
                "indexing": grid.indexing.value,
            }
        ),
        seed=args.seed,
        wall_clock_secs=elapsed,
        metrics=scope.snapshot(),
        results={
            "workload": args.workload,
            "refs": payload["refs"],
            "cells": grid.n_cells,
            "passes": payload["passes"],
            "miss_counts": payload["miss_counts"],
            "stack_distance_hist": payload["stack_distance_hist"],
            "rows": grid_rows(payload),
            "farm": (
                farm.last_run.summary() if farm.last_run is not None else {}
            ),
        },
    )
    _export_telemetry(args, scope, [manifest])
    return 0


def _sample_profile(args: argparse.Namespace):
    """The per-interval profile a ``sample`` subcommand works from."""
    from repro.experiments.table7 import default_interval_refs
    from repro.sampling import profile_workload

    total_refs = _total_refs(args)
    interval_refs = (
        args.interval_refs
        if args.interval_refs is not None
        else default_interval_refs(total_refs)
    )
    with _sessions(args):
        return profile_workload(
            get_workload(args.workload), total_refs, interval_refs
        )


def _cmd_sample_profile(args: argparse.Namespace) -> int:
    from repro.sampling import FEATURE_NAMES

    profile = _sample_profile(args)
    if args.json:
        print(json.dumps(
            {
                "workload": profile.workload,
                "task": profile.task,
                "total_refs": profile.total_refs,
                "interval_refs": profile.interval_refs,
                "n_intervals": profile.n_intervals,
                "features": profile.rows(),
            },
            indent=2, sort_keys=True,
        ))
        return 0
    rows = [
        [i] + [f"{row[name]:.4f}" for name in FEATURE_NAMES]
        for i, row in enumerate(profile.rows())
    ]
    print(format_table(
        ["Interval", *FEATURE_NAMES],
        rows,
        title=(
            f"{profile.workload}: {profile.n_intervals} intervals of "
            f"{profile.interval_refs:,} refs"
        ),
    ))
    return 0


def _cmd_sample_plan(args: argparse.Namespace) -> int:
    from repro.sampling import build_plan

    plan = build_plan(
        _sample_profile(args),
        max_phases=args.max_phases,
        per_phase=args.per_phase,
        seed=args.seed,
    )
    if args.out:
        _write_or_print(args.out, plan.dumps())
    if args.json:
        if args.out != "-":
            print(plan.dumps())
        return 0
    sizes = plan.phase_sizes()
    rows = [
        [
            s.interval,
            s.phase,
            s.role,
            sizes[s.phase],
            f"{plan.start_of(s.interval):,}",
        ]
        for s in plan.samples
    ]
    print(format_table(
        ["Interval", "Phase", "Role", "Phase size", "Start ref"],
        rows,
        title=(
            f"{args.workload}: {plan.n_phases} phase(s), "
            f"{len(plan.samples)}/{plan.n_intervals} intervals selected "
            f"({plan.selection_fraction:.0%} of the stream)"
        ),
    ))
    return 0


def _cmd_sample_stats(args: argparse.Namespace) -> int:
    """Summarize every sampled-run estimate recorded in the manifest log;
    the JSON view is raw."""
    path = args.manifest_path
    records = (telemetry.read_manifests if args.json else _valid_records)(path)
    sampled = [r for r in records if isinstance(r.get("estimates"), dict)]
    if args.json:
        print(json.dumps(
            [
                {
                    "name": r.get("name"),
                    "configuration": r.get("configuration"),
                    "created_unix": r.get("created_unix"),
                    "estimates": r["estimates"],
                }
                for r in sampled
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    if not sampled:
        print(f"no sampled-run estimates in {path}")
        return 0
    rows = []
    for record in sampled:
        for metric, entry in sorted(record["estimates"].items()):
            value = entry["value"]
            half = (entry["ci_high"] - entry["ci_low"]) / 2
            half_pct = 100.0 * half / abs(value) if value else 0.0
            rows.append(
                [
                    _created(record),
                    record["name"],
                    metric,
                    f"{value:,.1f}",
                    f"±{half_pct:.1f}%",
                    entry["method"],
                    "yes" if entry["exact"] else "no",
                ]
            )
    print(format_table(
        ["When", "Run", "Metric", "Value", "95% CI", "Method", "Exact"],
        rows,
        title=f"Sampled-run estimates ({path}, {len(sampled)} record(s))",
    ))
    return 0


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    print(faults.default_plan().dumps())
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.faults.chaos import DEFAULT_CHAOS_REFS, run_chaos

    plan = faults.load_plan(args.plan) if args.plan else faults.default_plan()
    report = run_chaos(
        plan,
        workload=args.workload,
        refs=args.refs if args.refs is not None else DEFAULT_CHAOS_REFS,
        seed=args.seed,
    )
    if args.json:
        print(report.dumps())
    else:
        print(report.render())
    if args.report_out:
        _write_or_print(args.report_out, report.dumps())
    return 0 if report.ok else 1


def _print_gc_summary(summary: dict[str, Any]) -> None:
    budget = summary["budget_bytes"]
    print(
        f"gc            : budget="
        + ("unbounded" if budget is None else f"{budget:,}B")
        + f" pins={summary['pins']} evicted={summary['evicted']} "
        f"freed={summary['bytes_freed']:,}B "
        f"pinned_skips={summary['pinned_skips']}"
    )
    for tier in summary["tiers"]:
        print(
            f"  {tier['tier']:<8}: {tier['bytes_before']:,}B -> "
            f"{tier['bytes_after']:,}B "
            f"(evicted {tier['evicted']}, orphans {tier['orphans_swept']}, "
            f"migrated {tier['migrated']}, pinned {tier['pinned_skips']})"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    params: dict[str, Any] = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 2
    service = FarmService(
        ServiceConfig(
            farm=FarmConfig(max_workers=args.jobs, cache_dir=args.cache_dir),
            cache_budget_bytes=args.cache_budget,
            stream_dir=args.stream_dir,
            shard=args.shard,
        )
    )
    report: dict[str, Any] = {}
    if args.resume:
        report["resume"] = service.resume()
    ticket = None
    if args.seeds > 0:
        batch = [
            Job(measure=args.measure, params=params, seed=seed)
            for seed in range(args.seeds)
        ]
        ticket = service.run(batch, client=args.client, batch=args.batch)
        report["ticket"] = ticket.summary()
        report["values"] = ticket.results
    if args.cache_budget is not None:
        report["gc"] = service.gc()
    if args.compact:
        report["compacted"] = service.journal.compact()
    report["status"] = service.status()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        if "resume" in report:
            resumed = report["resume"]
            print(
                f"resume        : {resumed['incomplete']} unfinished — "
                f"{resumed['reconciled']} reconciled from cache, "
                f"{resumed['executed']} re-executed, "
                f"{resumed['unreplayable']} unreplayable"
            )
        if ticket is not None:
            print(f"ticket        : #{ticket.ticket_id} {ticket.state}")
            if ticket.results is not None:
                print(f"values        : {ticket.results}")
            for key, reason in (ticket.reasons or {}).items():
                print(
                    f"  poisoned    : {key[:12]} "
                    f"{reason.get('verdict', reason)}"
                )
            if ticket.state == "failed":
                print(f"  error       : {ticket.error}")
        if "gc" in report:
            _print_gc_summary(report["gc"])
        if "compacted" in report:
            print(f"compacted     : {report['compacted']} retired job(s)")
        print(service.render_status())
    if ticket is not None and ticket.state != "done":
        return 1
    return 0


def _cmd_jobs_gc(args: argparse.Namespace) -> int:
    collector = CacheGC(args.cache_budget, pins=journal_pins(args.cache_dir))
    collector.collect(
        farm_dir=args.cache_dir,
        stream_dir=args.stream_dir,
        shard=args.shard,
    )
    summary = collector.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_gc_summary(summary)
    return 0


def _cmd_jobs_retry(args: argparse.Namespace) -> int:
    service = FarmService(
        ServiceConfig(
            farm=FarmConfig(max_workers=1, cache_dir=args.cache_dir)
        )
    )
    requeued = 0
    for entry in service.journal.entries():
        if entry.state in ("failed", "poisoned"):
            service.journal.requeue(entry.key)
            requeued += 1
    report = service.resume()
    report["requeued"] = requeued
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"retry         : {requeued} requeued — "
            f"{report['reconciled']} reconciled from cache, "
            f"{report['executed']} re-executed, "
            f"{report['unreplayable']} unreplayable"
        )
    return 0


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    journal = JobJournal(args.cache_dir)
    entries = journal.entries()
    if args.state:
        entries = [e for e in entries if e.state == args.state]
    if args.json:
        print(
            json.dumps(
                [dataclasses.asdict(e) for e in entries],
                indent=2, sort_keys=True,
            )
        )
        return 0
    if not entries:
        print(f"journal is empty ({args.cache_dir}/)")
        return 0
    print(journal_rows(entries))
    counts = journal.counts()
    print(
        "totals: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            f"{spec.meta.instructions_millions:g}M",
            f"{spec.meta.run_time_secs:g}s",
            f"{spec.meta.frac_user:.0%}",
            spec.meta.user_task_count,
            spec.meta.description[:48],
        ]
        for spec in all_workloads()
    ]
    print(
        format_table(
            ["Workload", "Instr", "Time", "User", "Tasks", "Description"],
            rows,
            title="Workload models (Table 3/4)",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Stack-distance locality profile per task stream — the calibration
    view used to fit the workloads to Table 6."""
    spec = get_workload(args.workload)
    sizes_kb = (1, 4, 16, 64)
    rows = []
    seen_binaries = set()
    for task_spec in spec.tasks.values():
        if task_spec.binary in seen_binaries:
            continue
        seen_binaries.add(task_spec.binary)
        stream = task_spec.build_stream(spec.name)
        simulator = StackSimulator(line_bytes=16)
        simulator.process(stream.next_chunk(args.refs))
        rows.append(
            [
                task_spec.name,
                f"{stream.footprint_bytes() // 1024}K",
            ]
            + [
                f"{simulator.miss_ratio(kb * 1024 // 16):.4f}"
                for kb in sizes_kb
            ]
        )
    print(
        format_table(
            ["Stream", "Footprint"] + [f"{kb}K" for kb in sizes_kb],
            rows,
            title=(
                f"{spec.name}: fully-associative LRU miss ratios "
                f"({args.refs:,} refs per stream)"
            ),
        )
    )
    return 0


def _cmd_assess_port(args: argparse.Namespace) -> int:
    from repro.machine.ops import assess_port

    try:
        assessment = assess_port(args.processor)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"processor          : {assessment.processor}")
    print(
        "mechanisms         : "
        + (", ".join(m.value for m in assessment.mechanisms) or "none")
    )
    print(f"cache simulation   : {'yes' if assessment.can_simulate_caches else 'no'}")
    print(f"TLB simulation     : {'yes' if assessment.can_simulate_tlbs else 'no'}")
    print(f"finest trap (bytes): {assessment.finest_granularity_bytes}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
