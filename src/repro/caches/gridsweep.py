"""One-pass all-associativity grid sweeps (Mattson / Sugumar style).

Figure 1's caption names single-pass stack simulators as the classic
answer to trace-driven repetition cost; this module generalizes the two
narrow corners the repo already had (``MultiSizeDMSweep``'s power-of-two
DM sizes, ``StackSimulator``'s fully-associative LRU) to the *whole*
``(set-counts × ways)`` LRU grid: for each set count the grid kernel
(:func:`repro.caches.pipeline.grid_kernel`) extracts per-set LRU stack
distances in one pass over the chunk, and a recorded
distance ``d`` means a hit at every associativity ``A > d`` — so a 4×8
grid of 32 configurations costs ~4 distance passes instead of 32
simulations, and is bit-equal to running ``Cache2000`` per cell.

Exactness conditions: LRU only (stack inclusion is what lets one pass
price every ways column; FIFO is not a stack algorithm, and seeded
random consumes its RNG in global miss order).
:func:`~repro.caches.pipeline.grid_supported` is the predicate, and
``grid_kernel`` raises for unsupported policies — those route to
per-config kernels.

Farm integration submits *one* content-addressed job per (workload,
grid) — ``grid_measure`` below, registered as ``"grid.sweep"`` — whose
payload carries every cell's miss count plus the per-set-count
``stack_distance_hist`` (the raw material for the learned-surrogate
roadmap item); :func:`grid_rows` flattens it back into per-config
manifest rows.  ``repro sweep grid`` drives it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import Indexing
from repro.caches.config import GridConfig
from repro.caches.pipeline import grid_kernel
from repro.caches.replacement import ReplacementPolicy
from repro.telemetry import session as telemetry_session
from repro.telemetry.profile import PROFILE_BUCKET_SECS

#: modeled per-address, per-set-count processing share of the distance
#: pass — dearer than the DM sweep's table probe (bounded stack search)
#: but far below a full Cache2000 visit per *configuration*
GRIDSWEEP_CYCLES_PER_ADDRESS_PER_PASS = 40


@dataclass(frozen=True)
class DistanceHistogram:
    """Capped LRU stack-distance histogram for one set count.

    ``counts[d]`` is the number of references found at depth ``d`` for
    ``d < max ways``; deeper references split into ``overflow``
    (resident somewhere, just beyond every priced associativity) and
    ``cold`` (first-ever touch of the key — compulsory, geometry
    independent).  ``counts + overflow + cold`` partitions the
    reference stream, and every grid cell's exact miss count is a tail
    sum: ``misses(A) = total - sum(counts[:A])``.
    """

    counts: tuple[int, ...]
    overflow: int
    cold: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.overflow + self.cold

    def hits_at(self, ways: int) -> int:
        return sum(self.counts[:ways])

    def misses_at(self, ways: int) -> int:
        return self.total - self.hits_at(ways)

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "overflow": self.overflow,
            "cold": self.cold,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DistanceHistogram":
        return cls(
            counts=tuple(int(c) for c in payload["counts"]),
            overflow=int(payload["overflow"]),
            cold=int(payload["cold"]),
        )


class GridSweepSimulator:
    """Chunk-driven all-associativity sweep over one grid kernel.

    The same shape as ``Cache2000``: construction builds (or fetches)
    the grid kernel, which raises for non-LRU policies,
    ``simulate_chunk`` folds address chunks in, and the results — every
    cell's exact miss count plus per-set-count distance histograms — are
    extracted on demand.  Consumes compiled streams transparently (the
    *driver* resolves streams; the simulator only sees address arrays).
    """

    def __init__(
        self,
        grid: GridConfig,
        policy: ReplacementPolicy | None = None,
        profile: bool | None = None,
    ) -> None:
        self.grid = grid
        program = grid_kernel(grid, policy, profile)
        #: the kernel factory's report (always the grid kernel)
        self.capabilities = program.capabilities
        self._run = program.run
        self._extract = program.extract
        self._state = program.make_state()
        self.refs = 0
        self.processing_cycles = 0
        self._cycles_per_ref = (
            GRIDSWEEP_CYCLES_PER_ADDRESS_PER_PASS * len(grid.set_counts)
        )

    def simulate_chunk(self, addresses: np.ndarray, tid: int = 0) -> None:
        """Fold one chunk of byte addresses into every grid cell."""
        n = len(addresses)
        if n == 0:
            return
        self._run(self._state, addresses, tid)
        self.refs += n
        self.processing_cycles += n * self._cycles_per_ref

    # ------------------------------------------------------------------
    # extraction

    @property
    def passes(self) -> int:
        """Distance passes run so far (chunks × set counts)."""
        return self._state.passes

    @property
    def distance_secs(self) -> float:
        """Wall-clock seconds spent inside the distance kernel."""
        return self._state.distance_secs

    def miss_counts(self) -> dict[tuple[int, int], int]:
        """Exact misses for every ``(set_count, ways)`` cell."""
        return dict(self._extract(self._state)["miss_counts"])

    def distance_histograms(self) -> dict[int, DistanceHistogram]:
        """Per-set-count capped distance histograms."""
        return {
            n_sets: DistanceHistogram.from_dict(payload)
            for n_sets, payload in self._extract(self._state)["hists"].items()
        }

    def publish_metrics(self, metrics) -> None:
        """Copy sweep counters into a metrics registry (one-shot,
        called at end of run like ``Cache2000.publish_metrics``)."""
        if self._state.passes:
            metrics.counter("sweep.grid.passes").inc(self._state.passes)
        metrics.counter("sweep.grid.configs").inc(self.grid.n_cells)
        metrics.histogram(
            "sweep.grid.distance_secs", bounds=PROFILE_BUCKET_SECS
        ).observe(self._state.distance_secs)


# ---------------------------------------------------------------------------
# the trace-driven sweep driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSweepReport:
    """One grid sweep's complete result, per-config rows extractable."""

    workload: str
    grid: GridConfig
    refs: int
    miss_counts: dict[tuple[int, int], int]
    hists: dict[int, DistanceHistogram]
    passes: int
    distance_secs: float
    generation_cycles: int
    processing_cycles: int

    @property
    def overhead_cycles(self) -> int:
        return self.generation_cycles + self.processing_cycles

    def miss_ratio(self, n_sets: int, ways: int) -> float:
        if self.refs == 0:
            return 0.0
        return self.miss_counts[(n_sets, ways)] / self.refs

    def to_payload(self) -> dict:
        """JSON-encodable form (the farm measure's return value)."""
        return {
            "workload": self.workload,
            "set_counts": list(self.grid.set_counts),
            "ways": list(self.grid.ways),
            "line_bytes": self.grid.line_bytes,
            "indexing": self.grid.indexing.value,
            "refs": self.refs,
            "passes": self.passes,
            "distance_secs": round(self.distance_secs, 6),
            "generation_cycles": self.generation_cycles,
            "processing_cycles": self.processing_cycles,
            "miss_counts": {
                f"{n_sets}x{ways}": misses
                for (n_sets, ways), misses in sorted(self.miss_counts.items())
            },
            "stack_distance_hist": {
                str(n_sets): hist.to_dict()
                for n_sets, hist in sorted(self.hists.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GridSweepReport":
        grid = GridConfig(
            set_counts=tuple(payload["set_counts"]),
            ways=tuple(payload["ways"]),
            line_bytes=int(payload["line_bytes"]),
            indexing=Indexing(payload["indexing"]),
        )
        miss_counts = {}
        for cell, misses in payload["miss_counts"].items():
            n_sets, _, ways = cell.partition("x")
            miss_counts[(int(n_sets), int(ways))] = int(misses)
        return cls(
            workload=payload["workload"],
            grid=grid,
            refs=int(payload["refs"]),
            miss_counts=miss_counts,
            hists={
                int(n_sets): DistanceHistogram.from_dict(hist)
                for n_sets, hist in payload["stack_distance_hist"].items()
            },
            passes=int(payload["passes"]),
            distance_secs=float(payload["distance_secs"]),
            generation_cycles=int(payload["generation_cycles"]),
            processing_cycles=int(payload["processing_cycles"]),
        )


def run_grid_sweep(
    spec,
    user_refs: int,
    grid: GridConfig,
    policy: ReplacementPolicy | None = None,
) -> GridSweepReport:
    """One annotated execution, every grid cell's exact miss count.

    Drives the primary user task's Pixie trace (compiled-stream backed
    when a stream session is active) through one
    :class:`GridSweepSimulator`.  Telemetry is pure observation: a
    ``sweep.grid`` span plus the ``sweep.grid.*`` counters when a
    session is active, bit-identical results either way.
    """
    from contextlib import nullcontext

    from repro.tracing.pixie import PixieTracer

    session = telemetry_session.active()
    span = (
        session.spans.span(
            "sweep.grid",
            workload=spec.name,
            cells=grid.n_cells,
            sets=",".join(map(str, grid.set_counts)),
            ways=",".join(map(str, grid.ways)),
        )
        if session is not None
        else nullcontext()
    )
    with span:
        tracer = PixieTracer(spec)
        sweep = GridSweepSimulator(grid, policy)
        for chunk in tracer.trace_chunks(user_refs):
            sweep.simulate_chunk(chunk.addresses, tid=chunk.tid)
        if session is not None:
            sweep.publish_metrics(session.metrics)
        return GridSweepReport(
            workload=spec.name,
            grid=grid,
            refs=sweep.refs,
            miss_counts=sweep.miss_counts(),
            hists=sweep.distance_histograms(),
            passes=sweep.passes,
            distance_secs=sweep.distance_secs,
            generation_cycles=tracer.generation_cycles,
            processing_cycles=sweep.processing_cycles,
        )


# ---------------------------------------------------------------------------
# farm integration: one cached job per (workload, grid)
# ---------------------------------------------------------------------------

def grid_measure(
    seed: int,
    workload: str,
    total_refs: int,
    set_counts: list[int],
    ways: list[int],
    line_bytes: int = 16,
    indexing: str = "physical",
) -> dict:
    """Farm measure: one whole grid in one content-addressed job.

    Registered as ``"grid.sweep"``.  The trace is deterministic per
    workload (``seed`` participates only in the cache key, matching the
    other trace-driven measures), so equal grids are served from the
    result cache regardless of how many per-config rows callers later
    extract from them.
    """
    del seed  # deterministic trace; seed only keys the cache entry
    from repro.workloads import get_workload

    grid = GridConfig(
        set_counts=tuple(int(s) for s in set_counts),
        ways=tuple(int(w) for w in ways),
        line_bytes=int(line_bytes),
        indexing=Indexing(indexing),
    )
    report = run_grid_sweep(get_workload(workload), int(total_refs), grid)
    return report.to_payload()


def grid_job(
    workload: str, total_refs: int, grid: GridConfig, seed: int = 0
):
    """The one farm job a whole (workload, grid) sweep costs."""
    from repro.farm import Job

    return Job(
        "grid.sweep",
        {
            "workload": workload,
            "total_refs": int(total_refs),
            "set_counts": list(grid.set_counts),
            "ways": list(grid.ways),
            "line_bytes": grid.line_bytes,
            "indexing": grid.indexing.value,
        },
        seed=seed,
    )


def grid_rows(payload: dict) -> list[dict]:
    """Flatten one grid payload into per-config manifest rows."""
    refs = int(payload["refs"])
    line_bytes = int(payload["line_bytes"])
    rows = []
    for cell, misses in sorted(
        payload["miss_counts"].items(),
        key=lambda item: tuple(map(int, item[0].split("x"))),
    ):
        n_sets, _, ways = cell.partition("x")
        n_sets, ways = int(n_sets), int(ways)
        rows.append(
            {
                "workload": payload["workload"],
                "n_sets": n_sets,
                "ways": ways,
                "size_bytes": n_sets * ways * line_bytes,
                "line_bytes": line_bytes,
                "indexing": payload["indexing"],
                "refs": refs,
                "misses": int(misses),
                "miss_ratio": (int(misses) / refs) if refs else 0.0,
            }
        )
    return rows
