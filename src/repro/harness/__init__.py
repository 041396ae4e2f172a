"""Experiment infrastructure: run workloads under either driver,
monitor them Monster-style, compute slowdowns, and aggregate trials."""

from repro.harness.slowdown import (
    cache2000_slowdown,
    normal_run_cycles,
    tapeworm_slowdown,
)
from repro.harness.monster import Monster
from repro.harness.runner import (
    RunOptions,
    TraceRunReport,
    run_trace_driven,
    run_trap_driven,
    run_warm_trials,
)
from repro.harness.experiment import TrialStats, run_trials
from repro.harness.tables import format_table

__all__ = [
    "normal_run_cycles",
    "tapeworm_slowdown",
    "cache2000_slowdown",
    "Monster",
    "RunOptions",
    "TraceRunReport",
    "run_trap_driven",
    "run_trace_driven",
    "run_warm_trials",
    "TrialStats",
    "run_trials",
    "format_table",
]
