"""Multi-configuration trace-driven simulation in one trace pass.

Figure 1's caption cites Sugumar's multi-configuration algorithms
[Sugumar93] alongside the stack approach.  For *direct-mapped* caches
the family of power-of-two sizes nests: a cache with 2^(k+1) sets
refines the set classes of one with 2^k sets, which gives the
monotonicity that makes a one-pass sweep exact —

    hit at 2^k sets  =>  hit at 2^(k+1) sets

(the most recent reference in the finer set class cannot be older than
the most recent in the coarser class, and when the coarser one is the
same line, that same-line reference also belongs to the finer class).

Economically this matters because trace *generation* dominates
trace-driven cost: one annotated execution feeds every size, where
plain Cache2000 re-runs the workload per configuration.  Per-address
processing still pays once per size, modeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caches.config import CacheConfig
from repro.caches.pipeline import dm_sweep_kernel
from repro.errors import ConfigError
from repro.tracing.cache2000 import CACHE2000_CYCLES_PER_HIT
from repro.tracing.pixie import PixieTracer
from repro.workloads.base import WorkloadSpec

#: per-size, per-address processing share of the sweep's inner loops
#: (cheaper than a full Cache2000 visit: one table probe, no replace
#: bookkeeping beyond the overwrite)
SWEEP_CYCLES_PER_ADDRESS_PER_SIZE = 14


class MultiSizeDMSweep:
    """Exact one-pass simulation of every power-of-two DM size.

    This is the ``ways=(1,)`` column of the all-associativity grid
    engine: :func:`~repro.caches.pipeline.dm_sweep_kernel` turns the
    size list into a :class:`~repro.caches.config.GridConfig`, and the
    grid kernel's direct-mapped specialization runs one pure-numpy
    :func:`~repro.caches.kernels.dm_grouped_pass` per set count — the
    same exact kernel Cache2000's DM fast path uses.
    """

    def __init__(
        self,
        sizes_bytes: tuple[int, ...],
        line_bytes: int = 16,
    ) -> None:
        self.configs = tuple(
            CacheConfig(size_bytes=size, line_bytes=line_bytes)
            for size in sorted(sizes_bytes)
        )
        if len({c.size_bytes for c in self.configs}) != len(self.configs):
            raise ConfigError("duplicate sizes in sweep")
        self.line_shift = self.configs[0].line_shift
        program = dm_sweep_kernel(self.configs)
        #: the kernel factory's report (always the grid kernel)
        self.capabilities = program.capabilities
        self._run = program.run
        self._extract = program.extract
        self._state = program.make_state()
        self.refs = 0
        self.processing_cycles = 0
        self._cycles_per_ref = (
            SWEEP_CYCLES_PER_ADDRESS_PER_SIZE * len(self.configs)
        )

    def simulate_chunk(self, addresses: np.ndarray) -> None:
        """Fold one chunk into every size's miss count."""
        n = len(addresses)
        if n == 0:
            return
        self._run(self._state, addresses)
        self.refs += n
        self.processing_cycles += n * self._cycles_per_ref

    @property
    def misses(self) -> list[int]:
        """Per-size miss counts, in ascending-size config order."""
        counts = self._extract(self._state)["miss_counts"]
        return [counts[(config.n_sets, 1)] for config in self.configs]

    def miss_counts(self) -> dict[int, int]:
        return {
            config.size_bytes: misses
            for config, misses in zip(self.configs, self.misses)
        }

    def check_monotonicity(self) -> bool:
        """Larger DM caches never miss more (the nesting property)."""
        return all(a >= b for a, b in zip(self.misses, self.misses[1:]))


@dataclass(frozen=True)
class SweepReport:
    miss_counts: dict[int, int]
    refs: int
    generation_cycles: int
    processing_cycles: int

    @property
    def overhead_cycles(self) -> int:
        return self.generation_cycles + self.processing_cycles


def run_multisize_sweep(
    spec: WorkloadSpec,
    user_refs: int,
    sizes_bytes: tuple[int, ...],
    line_bytes: int = 16,
) -> SweepReport:
    """One annotated execution, every size's exact DM miss count."""
    tracer = PixieTracer(spec)
    sweep = MultiSizeDMSweep(sizes_bytes, line_bytes=line_bytes)
    for chunk in tracer.trace_chunks(user_refs):
        sweep.simulate_chunk(chunk.addresses)
    return SweepReport(
        miss_counts=sweep.miss_counts(),
        refs=user_refs,
        generation_cycles=tracer.generation_cycles,
        processing_cycles=sweep.processing_cycles,
    )
