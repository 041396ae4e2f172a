"""Per-configuration chunk kernels for the trace-driven simulators.

Each simulator asks one factory for the kernel that serves its
configuration:

* :func:`cache_kernel` — ``Cache2000``'s chunk path;
* :func:`tlb_kernel` — ``SimulatedTLB.access_chunk``;
* :func:`grid_kernel` — ``GridSweepSimulator``'s all-associativity
  ``(sets × ways)`` LRU sweep;
* :func:`dm_sweep_kernel` — ``MultiSizeDMSweep``, the ``ways=(1,)``
  column of that sweep.

A factory validates its configuration, picks the path once and records
why in a :class:`CapabilityReport`, and returns a :class:`KernelProgram`
of closures with the geometry bound at build time: the line shift and
set mask are cell constants, and a profiling phase timer wraps ``run``
only when profiling was on when the kernel was built.  Cache and TLB
kernels replay into the simulated structure passed to ``run`` — its
packed keys (:func:`~repro.caches.kernels.pack`), its sets and its
``searches``/``insertions`` counters — exactly as its per-reference
``access`` would.  The path rules:

* **direct-mapped caches** always take the pure-numpy
  :func:`~repro.caches.kernels.dm_grouped_pass`: the victim is forced,
  so the policy is never consulted, even a seeded-random one;
* **LRU/FIFO** take the grouped-set replay at any associativity — per-
  set state is independent, so a stable sort by set is exact;
* **seeded-random replacement** above one way takes the exact
  per-reference path (reason ``policy:random``): the policy draws from
  one RNG stream in global miss order, which grouping would permute;
* ``force_general`` pins the per-reference path for differential
  testing (reason ``forced:request``);
* **grid** kernels exist for LRU only, whose stack inclusion lets one
  distance pass price every associativity; other policies raise.

Programs hold no simulation state — the structure passed to ``run``
does, or for grids the state ``make_state`` creates per simulator — so
:class:`KernelRegistry` memoizes one program per configuration per
process.  Nothing is persisted: a program is a set of closures, and
rebuilding one costs well under a millisecond.  See "Per-configuration
kernels" in docs/INTERNALS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro._types import Indexing
from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.kernels import (
    GROUPABLE_POLICIES,
    check_space,
    collapse_consecutive,
    dm_grouped_pass,
    first_touch_mask,
    grouped_distance_pass,
    grouped_stack_pass,
    pack,
)
from repro.caches.replacement import LRUPolicy, ReplacementPolicy, make_policy
from repro.errors import ConfigError
from repro.telemetry.profile import (
    PROFILE_BUCKET_SECS,
    phase,
    profiling_enabled,
)


@dataclass(frozen=True)
class CapabilityReport:
    """Which path a configuration runs, and why."""

    selected: str
    reasons: tuple[str, ...] = ()

    @property
    def general(self) -> bool:
        """True when the exact per-reference path was selected."""
        return self.selected in ("general", "tlb_general")


@dataclass(frozen=True)
class KernelProgram:
    """One configuration's kernel: closures only, no simulation state."""

    capabilities: CapabilityReport
    #: cache: (cache, addresses, tid) -> misses;
    #: tlb: (tlb, tid, vpns) -> misses;
    #: grid: (state, addresses, tid) -> references
    run: Callable
    #: grid kernels: () -> a fresh GridState
    make_state: Callable | None = None
    #: grid kernels: (state) -> exact per-cell misses + histograms
    extract: Callable | None = None

    @property
    def is_fast(self) -> bool:
        return not self.capabilities.general


# ---------------------------------------------------------------------------
# build-time helpers
# ---------------------------------------------------------------------------

def _policy_name(policy: ReplacementPolicy | str | None) -> str:
    if policy is None:
        return "lru"
    name = policy if isinstance(policy, str) else getattr(policy, "name", None)
    if not isinstance(name, str):
        raise ConfigError(
            f"replacement policy {policy!r} has no name; kernels are "
            "keyed by policy name"
        )
    return name


def _profiling(profile: bool | None) -> bool:
    """An explicit flag, else the active telemetry session's."""
    return profiling_enabled() if profile is None else bool(profile)


def _timed(run: Callable, phase_name: str, profile: bool) -> Callable:
    """``run`` inside a profiling phase timer, or ``run`` itself."""
    if not profile:
        return run

    def timed(*args):
        with phase(phase_name):
            return run(*args)

    return timed


# ---------------------------------------------------------------------------
# cache kernels
# ---------------------------------------------------------------------------

def cache_kernel(
    config: CacheConfig,
    policy: ReplacementPolicy | str | None = None,
    force_general: bool = False,
    profile: bool | None = None,
) -> KernelProgram:
    """The chunk kernel for one trace-driven cache.

    ``profile`` defaults to the active telemetry session's profiling
    flag, so simulators built inside a ``--profile`` run get the timed
    kernel and everything else the bare one.
    """
    name = _policy_name(policy)
    force_general = bool(force_general)
    profile = _profiling(profile)
    return default_registry().get(
        ("cache", config, name, force_general, profile),
        lambda: _build_cache(config, name, force_general, profile),
    )


def _build_cache(
    config: CacheConfig, name: str, force_general: bool, profile: bool
) -> KernelProgram:
    make_policy(name)  # raises on unknown names
    groupable = name in GROUPABLE_POLICIES
    if force_general or (config.associativity > 1 and not groupable):
        reasons = ("forced:request",) if force_general else ()
        if not groupable:
            reasons += (f"policy:{name}",)
        return _cache_general(CapabilityReport("general", reasons))
    if config.associativity == 1:
        return _cache_dm(config, profile)
    return _cache_grouped(config, name == "lru", profile)


def _cache_dm(config: CacheConfig, profile: bool) -> KernelProgram:
    """Direct-mapped: pure numpy on the cache's state array, any policy."""
    line_shift = config.line_shift
    set_mask = config.n_sets - 1

    def run(cache, addresses, tid: int = 0) -> int:
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return 0
        lines = addresses >> line_shift
        misses = dm_grouped_pass(
            cache.sets, lines & set_mask, pack(lines, cache.space_of(tid))
        )
        cache.searches += n
        cache.insertions += misses
        return misses

    return KernelProgram(
        capabilities=CapabilityReport("dm"),
        run=_timed(run, "kernels.dm_pass", profile),
    )


def _cache_grouped(
    config: CacheConfig, lru: bool, profile: bool
) -> KernelProgram:
    """Grouped-set stack replay: exact for LRU/FIFO, any associativity."""
    line_shift = config.line_shift
    set_mask = config.n_sets - 1
    associativity = config.associativity

    def run(cache, addresses, tid: int = 0) -> int:
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return 0
        lines = addresses >> line_shift
        sets = lines & set_mask
        keys = pack(lines, cache.space_of(tid))
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        keys_sorted = keys[order]
        keep = collapse_consecutive(sets_sorted, keys_sorted)
        misses = grouped_stack_pass(
            cache.sets,
            associativity,
            lru,
            sets_sorted[keep].tolist(),
            keys_sorted[keep].tolist(),
        )
        cache.searches += n
        cache.insertions += misses
        return misses

    return KernelProgram(
        capabilities=CapabilityReport("grouped"),
        run=_timed(run, "kernels.grouped_set", profile),
    )


def _cache_general(capabilities: CapabilityReport) -> KernelProgram:
    """The exact per-reference path: ``SetAssociativeCache.access`` on
    every address, so a seeded random policy draws from its RNG stream
    in global miss order.  The reference path is never timed.
    """

    def run(cache, addresses, tid: int = 0) -> int:
        misses = 0
        access = cache.access
        for addr in np.asarray(addresses, dtype=np.int64).tolist():
            hit, _ = access(tid, addr)
            if not hit:
                misses += 1
        return misses

    return KernelProgram(capabilities=capabilities, run=run)


# ---------------------------------------------------------------------------
# TLB kernels (the state lives on the SimulatedTLB passed to run)
# ---------------------------------------------------------------------------

def tlb_kernel(
    config: TLBConfig, policy: ReplacementPolicy | str | None = None
) -> KernelProgram:
    """The chunk-access kernel for one TLB (timed when profiling)."""
    name = _policy_name(policy)
    profile = profiling_enabled()
    return default_registry().get(
        ("tlb", config, name, profile),
        lambda: _build_tlb(config, name, profile),
    )


def _build_tlb(config: TLBConfig, name: str, profile: bool) -> KernelProgram:
    make_policy(name)  # raises on unknown names
    if name not in GROUPABLE_POLICIES:
        return KernelProgram(
            capabilities=CapabilityReport("tlb_general", (f"policy:{name}",)),
            run=_tlb_per_reference,
        )
    page_shift = config.pages_per_entry.bit_length() - 1
    set_mask = config.n_sets - 1
    associativity = config.effective_associativity
    lru = name == "lru"

    def run(tlb, tid: int, vpns) -> int:
        """Bit-identical to ``SimulatedTLB.access`` per reference,
        counters included: one search per reference, one insertion per
        miss, and the entry state ``miss_insert`` shares."""
        vpns = np.asarray(vpns, dtype=np.int64)
        n = len(vpns)
        if n == 0:
            return 0
        superpages = vpns >> page_shift
        sets = superpages & set_mask
        keys = pack(superpages, check_space(tid))
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        keys_sorted = keys[order]
        keep = collapse_consecutive(sets_sorted, keys_sorted)
        misses = grouped_stack_pass(
            tlb.sets,
            associativity,
            lru,
            sets_sorted[keep].tolist(),
            keys_sorted[keep].tolist(),
        )
        tlb.searches += n
        tlb.insertions += misses
        return misses

    return KernelProgram(
        capabilities=CapabilityReport("tlb_grouped"),
        run=_timed(run, "kernels.tlb_chunk", profile),
    )


def _tlb_per_reference(tlb, tid: int, vpns) -> int:
    """The per-reference TLB loop, for non-groupable policies."""
    misses = 0
    access = tlb.access
    for vpn in np.asarray(vpns, dtype=np.int64).tolist():
        hit, _ = access(tid, int(vpn))
        misses += not hit
    return misses


# ---------------------------------------------------------------------------
# the all-associativity (sets × ways) grid sweep
# ---------------------------------------------------------------------------

def grid_supported(policy: ReplacementPolicy | str | None) -> bool:
    """Can the one-pass grid engine price this policy exactly?

    Only LRU has the stack-inclusion property (an A-way LRU set holds
    exactly the top A entries of the unbounded per-set LRU stack) that
    lets one distance pass answer every associativity.  FIFO is not a
    stack algorithm, and seeded random draws victims in global miss
    order — both must run per-config.
    """
    if policy is None or isinstance(policy, LRUPolicy):
        return True
    name = policy if isinstance(policy, str) else getattr(policy, "name", "")
    return name == "lru"


def grid_kernel(
    grid: GridConfig,
    policy: ReplacementPolicy | str | None = None,
    profile: bool | None = None,
) -> KernelProgram:
    """The one-pass sweep kernel for a whole ``(sets × ways)`` grid."""
    if not grid_supported(policy):
        raise ConfigError(
            f"the one-pass grid engine is exact for LRU only; "
            f"{getattr(policy, 'name', policy)!r} configurations "
            f"must be simulated per-config"
        )
    profile = _profiling(profile)
    return default_registry().get(
        ("grid", grid, profile), lambda: _build_grid(grid, profile)
    )


def dm_sweep_kernel(configs: tuple[CacheConfig, ...]) -> KernelProgram:
    """The sweep kernel for a list of direct-mapped sizes.

    The sizes become the ``ways=(1,)`` column of a
    :class:`~repro.caches.config.GridConfig`: a DM cache of ``S`` sets
    is exactly the 1-way cell at set count ``S``.
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigError("dm sweep carries no configs")
    for config in configs:
        if config.associativity != 1:
            raise ConfigError(
                f"dm sweep requires direct-mapped configs, got "
                f"{config.describe()}"
            )
    if (
        len({config.line_bytes for config in configs}) != 1
        or len({config.indexing for config in configs}) != 1
    ):
        raise ConfigError(
            "dm sweep configs must share one line size and indexing"
        )
    grid = GridConfig(
        set_counts=tuple(config.n_sets for config in configs),
        ways=(1,),
        line_bytes=configs[0].line_bytes,
        indexing=configs[0].indexing,
    )
    return grid_kernel(grid)


class GridState:
    """Mutable grid-sweep state, one per simulator.

    ``stacks`` holds one structure per set count: bounded
    most-recent-first key stacks for the distance pass, or resident-key
    arrays in the direct-mapped (``max_ways == 1``) specialization.
    ``hists``/``overflow``/``cold`` are the three-part capped distance
    histogram the extractor prices every associativity from; ``seen``
    is the cross-chunk first-touch key set shared by all set counts.
    """

    __slots__ = (
        "stacks",
        "hists",
        "overflow",
        "cold",
        "refs",
        "seen",
        "passes",
        "distance_secs",
    )

    def __init__(
        self, set_counts: tuple[int, ...], max_ways: int, dm: bool
    ) -> None:
        if dm:
            self.stacks = [
                np.full(n_sets, -1, dtype=np.int64) for n_sets in set_counts
            ]
        else:
            self.stacks = [
                [[] for _ in range(n_sets)] for n_sets in set_counts
            ]
        self.hists = [
            np.zeros(max_ways, dtype=np.int64) for _ in set_counts
        ]
        self.overflow = [0] * len(set_counts)
        self.cold = 0
        self.refs = 0
        self.seen: set[int] = set()
        self.passes = 0
        self.distance_secs = 0.0


def _build_grid(grid: GridConfig, profile: bool) -> KernelProgram:
    """One stack-distance pass per set count prices every ways column.

    For each set count the chunk is stable-sorted by set and replayed
    through :func:`grouped_distance_pass` with per-set stacks bounded at
    the grid's largest associativity: a recorded depth ``d`` means a hit
    at every ``A > d`` (LRU stack inclusion), so the capped histogram
    plus its cold/overflow split yields the *exact* miss count of every
    ways column from that one pass.  Compulsory (first-touch) misses are
    geometry-independent and computed once per chunk, shared across set
    counts.  A ``max_ways == 1`` grid — the :func:`dm_sweep_kernel`
    shape — drops to the pure-numpy :func:`dm_grouped_pass` per set
    count.
    """
    line_shift = grid.line_shift
    set_counts = grid.set_counts
    ways = grid.ways
    max_ways = grid.max_ways
    virtual = grid.indexing is Indexing.VIRTUAL
    dm_only = max_ways == 1

    def make_state() -> GridState:
        return GridState(set_counts, max_ways, dm_only)

    if dm_only:
        def run(state: GridState, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            n = len(addresses)
            if n == 0:
                return 0
            start = time.perf_counter()
            lines = addresses >> line_shift
            keys = pack(lines, check_space(tid) if virtual else 0)
            cold = int(np.count_nonzero(first_touch_mask(keys, state.seen)))
            state.cold += cold
            for index, n_sets in enumerate(set_counts):
                misses = dm_grouped_pass(
                    state.stacks[index], lines & (n_sets - 1), keys
                )
                # a DM hit is exactly a distance-0 reference; the
                # misses beyond the (set-count independent) compulsory
                # ones are conflict overflow
                state.hists[index][0] += n - misses
                state.overflow[index] += misses - cold
                state.passes += 1
            state.refs += n
            state.distance_secs += time.perf_counter() - start
            return n
    else:
        def run(state: GridState, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            n = len(addresses)
            if n == 0:
                return 0
            start = time.perf_counter()
            lines = addresses >> line_shift
            keys = pack(lines, check_space(tid) if virtual else 0)
            cold_mask = first_touch_mask(keys, state.seen)
            state.cold += int(np.count_nonzero(cold_mask))
            for index, n_sets in enumerate(set_counts):
                sets = lines & (n_sets - 1)
                order = np.argsort(sets, kind="stable")
                sets_sorted = sets[order]
                keys_sorted = keys[order]
                keep = collapse_consecutive(sets_sorted, keys_sorted)
                kept = int(np.count_nonzero(keep))
                distances: list[int] = []
                _, overflow = grouped_distance_pass(
                    state.stacks[index],
                    max_ways,
                    sets_sorted[keep].tolist(),
                    keys_sorted[keep].tolist(),
                    cold_mask[order][keep].tolist(),
                    distances,
                )
                hist = state.hists[index]
                # collapsed consecutive duplicates are guaranteed
                # distance-0 hits that do not disturb LRU state
                hist[0] += n - kept
                if distances:
                    hist += np.bincount(
                        np.asarray(distances, dtype=np.int64),
                        minlength=max_ways,
                    )
                state.overflow[index] += overflow
                state.passes += 1
            state.refs += n
            state.distance_secs += time.perf_counter() - start
            return n

    def extract(state: GridState) -> dict:
        """Exact per-cell miss counts + per-set-count histograms."""
        miss_counts: dict[tuple[int, int], int] = {}
        hists: dict[int, dict] = {}
        for index, n_sets in enumerate(set_counts):
            counts = state.hists[index]
            hists[n_sets] = {
                "counts": [int(c) for c in counts],
                "overflow": int(state.overflow[index]),
                "cold": int(state.cold),
            }
            cumulative = np.cumsum(counts)
            for a in ways:
                miss_counts[(n_sets, a)] = state.refs - int(
                    cumulative[a - 1]
                )
        return {"miss_counts": miss_counts, "hists": hists}

    return KernelProgram(
        capabilities=CapabilityReport("grid", ("lru-stack-inclusion",)),
        run=_timed(run, "kernels.grid_pass", profile),
        make_state=make_state,
        extract=extract,
    )


# ---------------------------------------------------------------------------
# the per-process memo
# ---------------------------------------------------------------------------

class KernelRegistry:
    """One program per configuration, built on first use.

    :meth:`publish_metrics` copies the activity *since the last
    publish* — ``kernels.pipeline.compiles``,
    ``kernels.pipeline.lookups{hit=...}`` and the
    ``kernels.pipeline.compose_secs`` histogram — so per-run reports
    stay per-run although the memo outlives any single run.
    """

    def __init__(self) -> None:
        self._programs: dict[Hashable, KernelProgram] = {}
        self.compiles = 0
        self.hits = 0
        self.misses = 0
        self.compile_secs = 0.0
        #: one build duration per compile
        self._compose_secs: list[float] = []
        self._published = {"compiles": 0, "hits": 0, "misses": 0}
        self._published_composes = 0

    def __len__(self) -> int:
        return len(self._programs)

    def get(
        self, key: Hashable, build: Callable[[], KernelProgram]
    ) -> KernelProgram:
        """The program memoized under ``key`` — a configuration tuple
        whose first item names the kernel kind — built on first use."""
        program = self._programs.get(key)
        if program is not None:
            self.hits += 1
            return program
        self.misses += 1
        start = time.perf_counter()
        with phase("kernels.pipeline.compose", kind=key[0]):
            program = build()
        elapsed = time.perf_counter() - start
        self.compiles += 1
        self.compile_secs += elapsed
        self._compose_secs.append(elapsed)
        self._programs[key] = program
        return program

    def clear(self) -> int:
        """Drop every memoized program; returns how many were dropped."""
        dropped = len(self._programs)
        self._programs.clear()
        return dropped

    def publish_metrics(self, metrics) -> None:
        """Copy activity since the last publish into ``metrics``."""
        compiles = self.compiles - self._published["compiles"]
        hits = self.hits - self._published["hits"]
        misses = self.misses - self._published["misses"]
        if compiles:
            metrics.counter("kernels.pipeline.compiles").inc(compiles)
        if hits:
            metrics.counter("kernels.pipeline.lookups", hit="true").inc(hits)
        if misses:
            metrics.counter("kernels.pipeline.lookups", hit="false").inc(
                misses
            )
        self._published = {
            "compiles": self.compiles,
            "hits": self.hits,
            "misses": self.misses,
        }
        fresh = self._compose_secs[self._published_composes:]
        if fresh:
            histogram = metrics.histogram(
                "kernels.pipeline.compose_secs", bounds=PROFILE_BUCKET_SECS
            )
            for secs in fresh:
                histogram.observe(secs)
            self._published_composes = len(self._compose_secs)


_default: KernelRegistry | None = None


def default_registry() -> KernelRegistry:
    """The shared per-process registry every factory builds through."""
    global _default
    if _default is None:
        _default = KernelRegistry()
    return _default


def reset_default_registry() -> None:
    """Drop the shared registry (tests and long-lived services)."""
    global _default
    _default = None
