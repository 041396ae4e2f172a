"""repro — a reproduction of "Trap-driven Simulation with Tapeworm II"
(Uhlig, Nagle, Mudge & Sechrest, ASPLOS 1994).

Tapeworm II evaluates caches and TLBs by *trapping* instead of tracing:
it lives in the OS kernel, marks every memory location absent from a
simulated structure with a hardware trap (ECC check bits or page valid
bits), and lets the machine run at full speed between simulated misses.
This package reproduces the system and its entire evaluation on a
simulated DECstation 5000/200 substrate (see DESIGN.md for the
substitution argument).

Quick start::

    from repro import (
        CacheConfig, TapewormConfig, RunOptions,
        get_workload, run_trap_driven,
    )

    spec = get_workload("mpeg_play")
    config = TapewormConfig(cache=CacheConfig(size_bytes=4096))
    report = run_trap_driven(spec, config, RunOptions(total_refs=500_000))
    print(report.stats.total_misses, report.slowdown)
"""

from repro._types import Component, Indexing, TrapMechanism
from repro.caches import (
    CacheConfig,
    CacheStats,
    GridConfig,
    GridSweepReport,
    GridSweepSimulator,
    SetAssociativeCache,
    SimulatedTLB,
    StackSimulator,
    TLBConfig,
    TwoLevelCache,
    run_grid_sweep,
)
from repro.core import (
    HandlerCostModel,
    SetSampler,
    Tapeworm,
    TapewormConfig,
    TrapRunReport,
)
from repro.harness import (
    Monster,
    RunOptions,
    TraceRunReport,
    TrialStats,
    format_table,
    normal_run_cycles,
    run_trace_driven,
    run_trap_driven,
    run_trials,
    run_warm_trials,
)
from repro.farm import Farm, FarmConfig, Job
from repro.kernel import Kernel, SyscallInterface
from repro.machine import Machine, MachineConfig
from repro.streams import (
    CompiledStream,
    StreamSession,
    StreamStore,
    StreamTransport,
    WarmupPlan,
)
from repro.telemetry import MetricsRegistry, RunManifest, TelemetrySession
from repro.tracing import Cache2000, PixieTracer
from repro.workloads import WORKLOAD_NAMES, get_workload

__version__ = "1.0.0"

__all__ = [
    "Component",
    "Indexing",
    "TrapMechanism",
    "CacheConfig",
    "TLBConfig",
    "CacheStats",
    "SetAssociativeCache",
    "SimulatedTLB",
    "TwoLevelCache",
    "GridConfig",
    "GridSweepReport",
    "GridSweepSimulator",
    "StackSimulator",
    "run_grid_sweep",
    "HandlerCostModel",
    "SetSampler",
    "Tapeworm",
    "TapewormConfig",
    "TrapRunReport",
    "Monster",
    "RunOptions",
    "TraceRunReport",
    "TrialStats",
    "format_table",
    "normal_run_cycles",
    "run_trap_driven",
    "run_trace_driven",
    "run_trials",
    "Farm",
    "FarmConfig",
    "Job",
    "Kernel",
    "SyscallInterface",
    "Machine",
    "MachineConfig",
    "TelemetrySession",
    "MetricsRegistry",
    "RunManifest",
    "Cache2000",
    "PixieTracer",
    "CompiledStream",
    "StreamSession",
    "StreamStore",
    "StreamTransport",
    "WarmupPlan",
    "run_warm_trials",
    "get_workload",
    "WORKLOAD_NAMES",
    "__version__",
]
