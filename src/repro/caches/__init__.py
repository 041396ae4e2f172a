"""Simulated memory structures: caches, TLBs, hierarchies.

These are the *software data structures* both simulation styles maintain:
``tw_replace()`` inserts into them on every trap, and the Cache2000
analogue searches them on every trace address.  They are deliberately
independent of the driving style — the integration tests rely on the two
drivers producing identical miss counts over the same structure.
"""

from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.caches.cache import SetAssociativeCache
from repro.caches.gridsweep import (
    DistanceHistogram,
    GridSweepReport,
    GridSweepSimulator,
    grid_rows,
    run_grid_sweep,
)
from repro.caches.pipeline import (
    KernelProgram,
    KernelRegistry,
    cache_kernel,
    default_registry,
    dm_sweep_kernel,
    grid_kernel,
    grid_supported,
    tlb_kernel,
)
from repro.caches.tlb import SimulatedTLB
from repro.caches.multilevel import SplitCache, TwoLevelCache
from repro.caches.stack import StackSimulator
from repro.caches.stats import CacheStats

__all__ = [
    "CacheConfig",
    "GridConfig",
    "TLBConfig",
    "DistanceHistogram",
    "GridSweepReport",
    "GridSweepSimulator",
    "grid_kernel",
    "grid_rows",
    "grid_supported",
    "run_grid_sweep",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
    "SetAssociativeCache",
    "KernelProgram",
    "KernelRegistry",
    "cache_kernel",
    "default_registry",
    "dm_sweep_kernel",
    "tlb_kernel",
    "SimulatedTLB",
    "SplitCache",
    "TwoLevelCache",
    "StackSimulator",
    "CacheStats",
]
