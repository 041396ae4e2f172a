"""Differential tests of trap delivery.

Two comparisons share one harness (:class:`Sim`), and each compares the
complete simulated state two runs of one script leave behind.

*Batched against per-trap.*  On a direct-mapped, physically indexed
cache, Tapeworm installs a batch handler that delivers all of a
segment's ECC traps as one vectorized update, and declines any segment
whose trap state fails its check.  Each script runs as configured
(batched), and with the batch handler withdrawn, so every trap takes the
per-trap path.  The two runs must agree on chunk results, miss
statistics and overhead, dispatcher counts, both ECC bitmaps, the page
valid bits, cache contents and insertion counts, every set/clear
counter, and every simulated-clock timeline record.  Fixed cases build
the states the batch must decline (a trap erased by unshielded DMA, a
spurious trap, a pending true error), a spurious trap it must leave in
place (on a granule the segment never references), and the segments
the CPU never offers (masked interrupts, stores).

*Whole segments against reference-at-a-time.*  Per-trap delivery queues
only the next occurrence of each trapped location in a segment.  Each
script runs per-trap over whole segments, and again with every chunk cut
into one-reference chunks, where no later occurrence exists to queue;
both runs use one cycle per reference and the clock never ticks.  They
must agree on the same state (timeline records aside: a one-reference
chunk advances the clock between references).  Structures span
set-associative, virtually indexed, two-level and TLB simulations under
lru, fifo and random replacement.  Fixed cases reference a location
again later in the same segment after it stays trapped (a masked
interrupt, a dropped clear), is cleared without a reference (a TLB
superpage sibling, a store on a no-allocate machine), is re-trapped (a
displaced line or page), or hits a breakpoint.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._types import PAGE_SIZE, Component, Indexing, TrapMechanism
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.multilevel import TwoLevelCache
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.errors import DoubleBitError
from repro.faults.injector import MachineFaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.kernel.kernel import Kernel
from repro.machine.cpu import GRANULE_BYTES, GRANULE_SHIFT, ChunkResult, ExecContext
from repro.machine.dma import DMAEngine
from repro.machine.machine import Machine, MachineConfig
from repro.machine.mmu import PAGE_SHIFT
from repro.machine.traps import TrapKind
from repro.telemetry.session import enabled
from repro.telemetry.spans import SIM_CLOCK

#: one sequential run of word references: (vpn, first word, length)
_RUN = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=1023),
    st.integers(min_value=1, max_value=256),
)

_CHUNK = st.tuples(
    st.just("run"),
    st.integers(min_value=0, max_value=3),
    st.lists(_RUN, min_size=1, max_size=8),
)

_STEP = st.one_of(
    _CHUNK,
    _CHUNK,
    _CHUNK,
    st.tuples(st.just("fork")),
    st.tuples(st.just("exit"), st.integers(min_value=0, max_value=3)),
    st.tuples(
        st.just("attributes"),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    ),
)

_MEMORY = 4 * 1024 * 1024

_SETUP = st.fixed_dictionaries(
    {
        "size_bytes": st.sampled_from([1024, 2048, 4096, 8192, 16384]),
        "line_bytes": st.sampled_from([16, 32, 64]),
        "sampling": st.sampled_from([1, 2, 4]),
        "sampling_seed": st.integers(min_value=0, max_value=3),
        "alloc_seed": st.integers(min_value=0, max_value=3),
        "simulate_kernel": st.booleans(),
        "tick_cycles": st.sampled_from([4_000, 10**9]),
    }
)


class Sim:
    """A booted machine with Tapeworm installed and a shell task.

    ``setup["config"]``, when present, is the Tapeworm configuration;
    otherwise a direct-mapped cache is built from the setup's geometry.
    ``setup["cpi"]``, when present, runs every chunk at that many cycles
    per reference instead of the task's component CPI.  ``batched``
    keeps the batch handler; ``per_reference`` cuts every chunk into
    one-reference chunks.
    """

    def __init__(
        self, setup: dict, batched: bool, per_reference: bool = False
    ) -> None:
        machine = Machine(
            MachineConfig(
                memory_bytes=_MEMORY,
                n_vpages=256,
                tick_cycles=setup["tick_cycles"],
            )
        )
        self.kernel = Kernel(
            machine=machine,
            alloc_policy="random",
            trial_seed=setup["alloc_seed"],
        )
        config = setup.get("config") or TapewormConfig(
            cache=CacheConfig(
                size_bytes=setup["size_bytes"],
                line_bytes=setup["line_bytes"],
            ),
            sampling=setup["sampling"],
            sampling_seed=setup["sampling_seed"],
        )
        self.tapeworm = Tapeworm(self.kernel, config)
        self.tapeworm.install()
        if not batched:
            machine.dispatcher.withdraw_batch(TrapKind.ECC_ERROR)
        self.machine = machine
        self.cpi = setup.get("cpi")
        self.per_reference = per_reference
        self.shell = self.kernel.spawn("shell", Component.USER)
        self.tapeworm.tw_attributes(self.shell.tid, simulate=0, inherit=1)
        if setup["simulate_kernel"]:
            self.tapeworm.tw_attributes(0, simulate=1, inherit=0)
        self.children: list = []
        self.results: list[dict] = []
        self.forks = 0
        for _ in range(2):
            self.step(("fork",))

    def tasks(self) -> list:
        return [self.shell, *self.children]

    def run(self, task, vas, writes=None) -> None:
        vas = np.asarray(vas, dtype=np.int64)
        ctx = self.kernel.context_for(task)
        if self.cpi is not None:
            ctx = ExecContext(ctx.tid, ctx.component, cpi=self.cpi)
        run_chunk = self.machine.cpu.run_chunk
        if self.per_reference:
            result = ChunkResult()
            for k in range(len(vas)):
                result.merge(
                    run_chunk(
                        ctx,
                        vas[k : k + 1],
                        None if writes is None else writes[k : k + 1],
                    )
                )
        else:
            result = run_chunk(ctx, vas, writes)
        self.results.append(dataclasses.asdict(result))

    def step(self, step: tuple) -> None:
        action = step[0]
        if action in ("run", "store", "masked"):
            slot, runs = step[1], step[2]
            tasks = self.tasks()
            vas = np.concatenate(
                [
                    vpn * PAGE_SIZE + 4 * (word + np.arange(length))
                    for vpn, word, length in runs
                ]
            )
            writes = None
            if action == "store":
                writes = np.zeros(len(vas), dtype=bool)
                writes[:: step[3]] = True
            task = tasks[slot % len(tasks)]
            if action != "masked":
                self.run(task, vas, writes)
                return
            self.machine.mask_interrupts()
            try:
                self.run(task, vas, writes)
            finally:
                self.machine.unmask_interrupts()
        elif action == "drop":
            self.drop_clears(step[1])
        elif action == "fork":
            if len(self.children) < 3:
                self.forks += 1
                self.children.append(
                    self.kernel.fork(self.shell.tid, f"child{self.forks}")
                )
        elif action == "exit":
            if self.children:
                task = self.children.pop(step[1] % len(self.children))
                self.kernel.exit_task(task.tid)
        else:
            _, slot, simulate = step
            tasks = self.tasks()
            self.tapeworm.tw_attributes(
                tasks[slot % len(tasks)].tid, simulate=int(simulate), inherit=1
            )

    def drop_clears(self, count: int) -> None:
        """Lose the next ``count`` ``tw_clear_trap`` calls, through the
        fault injector's ``trap_clear_drop``."""
        plan = FaultPlan(
            specs=(FaultSpec(FaultKind.TRAP_CLEAR_DROP, count=count),)
        )
        injector = MachineFaultInjector(self.tapeworm, plan)
        injector.arm()
        # the plan fires at chunk 0: the injector's first chunk tap
        injector.on_chunk(
            self.shell.tid, self.shell.component, np.zeros(1, dtype=np.int64)
        )

    def state(self) -> dict:
        """Everything two deliveries of one script must agree on."""
        machine, tapeworm = self.machine, self.tapeworm
        ecc = machine.ecc
        primitives = tapeworm.primitives
        stats = tapeworm.stats
        return {
            "results": self.results,
            "misses": dict(stats.misses),
            "refs": dict(stats.refs),
            "masked_misses": stats.masked_misses,
            "overhead_cycles": tapeworm.overhead_cycles,
            "true_errors": tapeworm.true_errors_detected,
            "counts": dict(machine.dispatcher.counts),
            "granule_trapped": np.flatnonzero(ecc.granule_trapped).tolist(),
            "tapeworm_granules": ecc.tapeworm_granules().tolist(),
            "valid": {
                table.tid: np.flatnonzero(table.valid).tolist()
                for table in machine.mmu.tables()
            },
            "contents": _contents(tapeworm),
            "ecc_sets": ecc.stats_sets,
            "ecc_clears": ecc.stats_clears,
            "set_calls": primitives.set_calls,
            "clear_calls": primitives.clear_calls,
            "clock": machine.clock.now,
        }


def _contents(tapeworm) -> list[tuple[list, int]]:
    """Each simulated structure's resident keys and insertion count."""
    if tapeworm.tlb is not None:
        parts = (tapeworm.tlb,)
    elif isinstance(tapeworm.structure, TwoLevelCache):
        parts = (tapeworm.structure.l1, tapeworm.structure.l2)
    else:
        parts = (tapeworm.structure,)
    return [(sorted(part.resident_keys()), part.insertions) for part in parts]


def _simulated_records(session) -> list[tuple]:
    """Every simulated-clock timeline record, field by field."""
    return [
        (r.name, r.lane, r.start_us, r.dur_us, r.args)
        for r in session.spans.records(SIM_CLOCK)
    ]


def _play(setup: dict, script: list, batched: bool) -> tuple[dict, dict]:
    with enabled() as session:
        sim = Sim(setup, batched)
        for step in script:
            sim.step(step)
    state = sim.state()
    state["events"] = _simulated_records(session)
    return state, dict(sim.machine.dispatcher.segments)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=_SETUP, script=st.lists(_STEP, min_size=1, max_size=20))
def test_batched_delivery_matches_per_trap(setup, script):
    batched, segments = _play(setup, script, batched=True)
    reference, reference_segments = _play(setup, script, batched=False)
    assert batched == reference
    # the reference run never batches; the batched run's segments
    # split between the paths without losing any
    assert reference_segments["batch"] == 0
    assert sum(segments.values()) == reference_segments["per_trap"]


def test_batch_path_carries_an_unperturbed_run():
    """The differential test is not vacuous: on a plain run, every
    segment with a trap candidate is delivered by the batch handler."""
    setup = dict(
        size_bytes=2048, line_bytes=16, sampling=1, sampling_seed=0,
        alloc_seed=1, simulate_kernel=False, tick_cycles=10**9,
    )
    script = [("fork",), ("run", 1, [(0, 0, 1024), (1, 0, 1024)])] * 3
    batched, segments = _play(setup, script, batched=True)
    reference, _ = _play(setup, script, batched=False)
    assert batched == reference
    assert segments["batch"] > 0 and segments["per_trap"] == 0
    assert sum(batched["misses"].values()) > 0


# ---------------------------------------------------------------------------
# fixed cases: states the batch must decline, segments it is never offered
# ---------------------------------------------------------------------------

_FIXED = dict(
    size_bytes=2048, line_bytes=16, sampling=1, sampling_seed=0,
    alloc_seed=2, simulate_kernel=False, tick_cycles=10**9,
)

#: two pages of sequential code: each set of the 2 KB cache holds one of
#: four lines, so after this chunk every set has one resident line and
#: three trapped ones
_WARM = np.arange(0, 2 * PAGE_SIZE, 4, dtype=np.int64)


def _warmed(batched: bool, line_bytes: int = 16) -> tuple[Sim, object]:
    sim = Sim(dict(_FIXED, line_bytes=line_bytes), batched)
    task = sim.kernel.fork(sim.shell.tid, "victim")
    sim.run(task, _WARM)
    return sim, task


def _pa(sim: Sim, task, va: int) -> int:
    return int(sim.machine.mmu.table(task.tid).translate(np.array([va]))[0])


def _lines_of_set(sim: Sim, task, set_index: int) -> tuple[list[int], int]:
    """The warm-up's line vas in one set, and the resident one."""
    cache = sim.tapeworm.structure
    lines = [
        int(va) for va in _WARM[:: cache.config.line_bytes // 4]
        if cache.config.set_of(_pa(sim, task, int(va))) == set_index
    ]
    resident = [
        va for va in lines if cache.contains(task.tid, _pa(sim, task, va))
    ]
    assert len(lines) == 4 and len(resident) == 1
    return lines, resident[0]


def _perturb_and_run(
    perturb, chunks, batched: bool, line_bytes: int = 16
) -> tuple[dict, dict]:
    sim, task = _warmed(batched, line_bytes)
    before = dict(sim.machine.dispatcher.segments)
    outcome = None
    with enabled() as session:
        perturb(sim, task)
        for vas, writes in chunks(sim, task):
            try:
                sim.run(task, vas, writes)
            except DoubleBitError as error:
                outcome = error.diagnostic
                break
    state = sim.state()
    state["events"] = _simulated_records(session)
    state["outcome"] = outcome
    after = sim.machine.dispatcher.segments
    delta = {path: after[path] - before[path] for path in after}
    return state, delta


def _same_as_per_trap(perturb, chunks, line_bytes: int = 16) -> tuple[dict, dict]:
    """Both runs' final state, which must agree, and the batched run's
    segment counts by path."""
    batched, delta = _perturb_and_run(perturb, chunks, True, line_bytes)
    reference, _ = _perturb_and_run(perturb, chunks, False, line_bytes)
    assert batched == reference
    return batched, delta


def _set_chunks(set_index: int, picks):
    """Chunks touching one set: ``picks(lines, resident)`` -> vas, then
    a plain follow-up chunk over the whole footprint."""

    def chunks(sim, task):
        lines, resident = _lines_of_set(sim, task, set_index)
        yield np.array(picks(lines, resident), dtype=np.int64), None
        yield _WARM, None

    return chunks


def _absent(lines: list[int], resident: int) -> list[int]:
    return [va for va in lines if va != resident]


def test_dma_cleared_trap_declines():
    def perturb(sim, task):
        lines, resident = _lines_of_set(sim, task, 5)
        # an unshielded transfer: the trap vanishes, the line stays absent
        target = _pa(sim, task, _absent(lines, resident)[0])
        DMAEngine(sim.machine).write(target, 16)

    def picks(lines, resident):
        absent = _absent(lines, resident)
        return [absent[0], absent[1], absent[0]]

    _, delta = _same_as_per_trap(perturb, _set_chunks(5, picks))
    assert delta["per_trap"] >= 1


def test_spurious_trap_on_resident_line_declines():
    def perturb(sim, task):
        _, resident = _lines_of_set(sim, task, 9)
        sim.machine.ecc.set_trap(_pa(sim, task, resident), 16)

    def picks(lines, resident):
        return [resident, _absent(lines, resident)[0], resident]

    _, delta = _same_as_per_trap(perturb, _set_chunks(9, picks))
    assert delta["per_trap"] >= 1


@pytest.mark.parametrize("line_bytes", [32, 64])
def test_spurious_trap_in_a_set_without_candidates_survives(line_bytes):
    """A spurious trap on an unreferenced granule of a resident line,
    in a set the segment references but that holds no candidate: the
    batch replays that set as hits and leaves its trap state alone, as
    per-trap delivery does."""

    marked = []

    def perturb(sim, task):
        _, resident = _lines_of_set(sim, task, 5)
        last_granule = _pa(sim, task, resident) + line_bytes - GRANULE_BYTES
        sim.machine.ecc.set_trap(last_granule, GRANULE_BYTES)
        marked.append(last_granule // GRANULE_BYTES)

    def chunks(sim, task):
        _, resident = _lines_of_set(sim, task, 5)
        lines, other = _lines_of_set(sim, task, 9)
        yield np.array(
            [resident, _absent(lines, other)[0], resident + 4], dtype=np.int64
        ), None

    state, delta = _same_as_per_trap(perturb, chunks, line_bytes)
    assert delta == {"batch": 1, "per_trap": 0}
    assert marked[0] in state["tapeworm_granules"]


def test_masked_segment_counts_lost_traps_as_the_per_trap_loop():
    """With interrupts masked and ECC the only trap source, a segment's
    lost traps are counted without the heap; the per-trap loop on the
    same state must agree, a granule referenced twice included."""
    outcomes = []
    for through_loop in (False, True):
        sim, task = _warmed(True)
        lines, resident = _lines_of_set(sim, task, 5)
        absent = _absent(lines, resident)
        vas = np.array(
            [absent[0], resident, absent[0], absent[1]], dtype=np.int64
        )
        table = sim.machine.mmu.table(task.tid)
        vpns, pas = vas >> PAGE_SHIFT, table.translate(vas)
        ctx = sim.kernel.context_for(task)
        result = ChunkResult()
        ecc = sim.machine.ecc
        sim.machine.mask_interrupts()
        if through_loop:
            granules = pas >> GRANULE_SHIFT
            sim.machine.cpu._process_candidates(
                ctx, table, vas, vpns, pas, granules,
                ecc.granule_trapped[granules], None, None, result,
            )
        else:
            sim.machine.cpu._execute_segment(ctx, table, vas, vpns, pas, result)
        sim.machine.unmask_interrupts()
        outcomes.append(
            (
                dataclasses.asdict(result),
                np.flatnonzero(ecc.granule_trapped).tolist(),
                ecc.tapeworm_granules().tolist(),
                dict(sim.machine.dispatcher.counts),
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]["masked_traps"] == 3


def test_true_error_raises_at_the_same_reference():
    def perturb(sim, task):
        lines, resident = _lines_of_set(sim, task, 3)
        corrupt = _pa(sim, task, _absent(lines, resident)[0])
        sim.machine.ecc.inject_true_error(corrupt, bit=3, double=True)

    def picks(lines, resident):
        absent = _absent(lines, resident)
        # a clean trap first, then the corrupted line
        return [absent[1], absent[0], absent[2]]

    state, _ = _same_as_per_trap(perturb, _set_chunks(3, picks))
    assert state["outcome"] is not None
    assert not state["outcome"].recoverable


def test_victim_outside_the_domain_gets_no_trap():
    """A displaced line whose frame has left the registry gets no trap
    (``Replacer`` calls it untranslatable); the batch must agree."""

    def perturb(sim, task):
        _, resident = _lines_of_set(sim, task, 7)
        page = resident & ~(PAGE_SIZE - 1)
        # unregister behind the cache's back: the resident line stays
        sim.tapeworm.registry.remove(task.tid, _pa(sim, task, page), page)

    def chunks(sim, task):
        lines, resident = _lines_of_set(sim, task, 7)
        other_page = next(
            va for va in lines if va // PAGE_SIZE != resident // PAGE_SIZE
        )
        yield np.array([other_page], dtype=np.int64), None

    _, delta = _same_as_per_trap(perturb, chunks)
    assert delta == {"batch": 1, "per_trap": 0}


def test_masked_interrupts_are_never_offered():
    def perturb(sim, task):
        sim.machine.mask_interrupts()

    def chunks(sim, task):
        yield _WARM[::-1].copy(), None

    _, delta = _same_as_per_trap(perturb, chunks)
    assert delta == {"batch": 0, "per_trap": 1}


def test_store_segments_are_never_offered():
    def chunks(sim, task):
        vas = _WARM[::-1].copy()
        writes = np.zeros(len(vas), dtype=bool)
        writes[::7] = True
        yield vas, writes

    _, delta = _same_as_per_trap(lambda sim, task: None, chunks)
    assert delta == {"batch": 0, "per_trap": 1}


@pytest.mark.parametrize(
    "config",
    [
        TapewormConfig(cache=CacheConfig(size_bytes=2048, associativity=2)),
        TapewormConfig(
            cache=CacheConfig(size_bytes=2048), replacement="random"
        ),
        TapewormConfig(
            cache=CacheConfig(size_bytes=2048, indexing=Indexing.VIRTUAL)
        ),
        TapewormConfig(
            cache=CacheConfig(size_bytes=16384, line_bytes=8192)
        ),
        TapewormConfig(
            structure="two_level",
            cache=CacheConfig(size_bytes=1024),
            l2=CacheConfig(size_bytes=4096),
        ),
    ],
    ids=["two-way", "random", "virtual", "line-over-page", "two-level"],
)
def test_batch_installed_only_where_exact(config):
    machine = Machine(MachineConfig(memory_bytes=_MEMORY, n_vpages=256))
    tapeworm = Tapeworm(Kernel(machine=machine), config)
    tapeworm.install()
    assert machine.dispatcher.withdraw_batch(TrapKind.ECC_ERROR) is None


def test_batch_installed_for_direct_mapped_physical_cache():
    machine = Machine(MachineConfig(memory_bytes=_MEMORY, n_vpages=256))
    tapeworm = Tapeworm(
        Kernel(machine=machine),
        TapewormConfig(cache=CacheConfig(size_bytes=2048), replacement="fifo"),
    )
    tapeworm.install()
    assert machine.dispatcher.withdraw_batch(TrapKind.ECC_ERROR) is not None


# ---------------------------------------------------------------------------
# whole segments against reference-at-a-time delivery
# ---------------------------------------------------------------------------

#: shorter runs than above, since the reference run enters the CPU once
#: per reference, over the first KB of twelve pages (three 16 KB
#: superpages) and looped up to three times, so that displaced lines
#: and pages come back within one segment
_SHORT_RUNS = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=1, max_value=48),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=3),
).map(lambda looped: looped[0] * looped[1])

_SLOT = st.integers(min_value=0, max_value=3)

_PER_TRAP_STEP = st.one_of(
    st.tuples(st.just("run"), _SLOT, _SHORT_RUNS),
    st.tuples(st.just("run"), _SLOT, _SHORT_RUNS),
    st.tuples(
        st.just("store"),
        _SLOT,
        _SHORT_RUNS,
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(st.just("masked"), _SLOT, _SHORT_RUNS),
    st.tuples(st.just("drop"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("exit"), _SLOT),
    st.tuples(st.just("attributes"), _SLOT, st.booleans()),
)


@st.composite
def _per_trap_configs(draw) -> TapewormConfig:
    """Every structure the batch never takes: set-associative, virtually
    indexed, two-level and TLB simulations, any replacement policy."""
    structure = draw(st.sampled_from(["cache", "two_level", "tlb"]))
    cache = l2 = tlb = None
    if structure == "tlb":
        n_entries = draw(st.sampled_from([2, 4, 8]))
        tlb = TLBConfig(
            n_entries=n_entries,
            associativity=draw(st.sampled_from([0, 2])),
            page_bytes=draw(st.sampled_from([PAGE_SIZE, 4 * PAGE_SIZE])),
        )
        n_sets = tlb.n_sets
    else:
        line_bytes = draw(st.sampled_from([16, 32]))
        indexing = draw(st.sampled_from(list(Indexing)))
        cache = CacheConfig(
            size_bytes=draw(st.sampled_from([1024, 2048, 4096])),
            line_bytes=line_bytes,
            associativity=draw(st.sampled_from([1, 2, 4, 8])),
            indexing=indexing,
        )
        if structure == "two_level":
            l2 = CacheConfig(
                size_bytes=4 * cache.size_bytes,
                line_bytes=line_bytes,
                associativity=draw(st.sampled_from([1, 2])),
                indexing=indexing,
            )
        n_sets = cache.n_sets
    return TapewormConfig(
        structure=structure,
        cache=cache,
        l2=l2,
        tlb=tlb,
        replacement=draw(st.sampled_from(["lru", "fifo", "random"])),
        policy_seed=draw(st.integers(min_value=0, max_value=3)),
        sampling=draw(st.sampled_from([s for s in (1, 2, 4) if s <= n_sets])),
        sampling_seed=draw(st.integers(min_value=0, max_value=3)),
    )


_PER_TRAP_SETUP = st.fixed_dictionaries(
    {
        "config": _per_trap_configs(),
        "alloc_seed": st.integers(min_value=0, max_value=3),
        "simulate_kernel": st.booleans(),
        "tick_cycles": st.just(10**9),
        "cpi": st.just(1.0),
    }
)


def _play_references(setup: dict, script: list, per_reference: bool) -> dict:
    sim = Sim(setup, batched=False, per_reference=per_reference)
    for step in script:
        sim.step(step)
    return sim.state()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    setup=_PER_TRAP_SETUP,
    script=st.lists(_PER_TRAP_STEP, min_size=1, max_size=12),
)
def test_segment_delivery_matches_reference_at_a_time(setup, script):
    segments = _play_references(setup, script, per_reference=False)
    references = _play_references(setup, script, per_reference=True)
    assert segments == references


#: no clock ticks, one cycle per reference
_UNIT = dict(alloc_seed=2, simulate_kernel=False, tick_cycles=10**9, cpi=1.0)

#: the 2 KB direct-mapped cache of the fixed cases above, per trap
_DM = TapewormConfig(cache=CacheConfig(size_bytes=2048))


def _segments_and_references(config: TapewormConfig, scenario) -> dict:
    """Run ``scenario(sim, task)`` per-trap over whole segments and one
    reference at a time; the final states must agree.  Returns the
    whole-segment run's state."""
    states = []
    for per_reference in (False, True):
        sim = Sim(dict(_UNIT, config=config), False, per_reference)
        scenario(sim, sim.kernel.fork(sim.shell.tid, "victim"))
        states.append(sim.state())
    assert states[0] == states[1]
    return states[0]


def _page(vpn: int) -> int:
    return vpn * PAGE_SIZE


def test_masked_trap_stays_trapped_at_later_references():
    def scenario(sim, task):
        sim.run(task, _WARM)
        lines, resident = _lines_of_set(sim, task, 5)
        absent = _absent(lines, resident)
        sim.machine.mask_interrupts()
        sim.run(task, [absent[0], absent[1], absent[0], resident, absent[0]])
        sim.machine.unmask_interrupts()
        sim.run(task, _WARM)

    state = _segments_and_references(_DM, scenario)
    # every reference to a trapped line loses its trap, not just the first
    assert state["results"][1]["masked_traps"] == 4


def test_dropped_clear_stays_trapped_at_later_references():
    def scenario(sim, task):
        sim.run(task, _WARM)
        lines, resident = _lines_of_set(sim, task, 6)
        absent = _absent(lines, resident)
        other_lines, other = _lines_of_set(sim, task, 7)
        sim.drop_clears(1)
        sim.run(task, [absent[0], other, absent[0], _absent(other_lines, other)[0]])
        sim.run(task, _WARM)

    state = _segments_and_references(_DM, scenario)
    # the first miss's clear is lost, so the line traps once more
    assert state["results"][1]["traps"] == 3


def test_true_error_restore_keeps_the_trap():
    def scenario(sim, task):
        sim.run(task, _WARM)
        lines, resident = _lines_of_set(sim, task, 8)
        absent = _absent(lines, resident)
        sim.machine.ecc.inject_true_error(_pa(sim, task, absent[0]), bit=5)
        sim.run(task, [absent[0], resident, absent[0], absent[1], absent[0]])

    state = _segments_and_references(_DM, scenario)
    assert state["true_errors"] == 1


def test_store_clears_a_trap_before_later_references():
    def scenario(sim, task):
        sim.run(task, _WARM)
        lines, resident = _lines_of_set(sim, task, 7)
        absent = _absent(lines, resident)
        vas = [absent[0], absent[0], absent[1], absent[0] + 4, absent[1]]
        writes = np.array([True, False, False, False, False])
        sim.run(task, vas, writes)

    state = _segments_and_references(_DM, scenario)
    assert state["results"][1]["silent_clears"] == 1
    assert state["results"][1]["traps"] == 1


def test_superpage_sibling_cleared_without_a_reference():
    """A TLB miss clears the traps of every registered page under the
    new entry's superpage; those pages' queued first occurrences are
    stale when popped."""
    config = TapewormConfig(
        structure="tlb", tlb=TLBConfig(n_entries=2, page_bytes=4 * PAGE_SIZE)
    )

    def scenario(sim, task):
        # three superpages through two entries: the first one's pages
        # end up registered and trapped
        sim.run(task, [_page(vpn) for vpn in range(12)])
        sim.run(task, [_page(1), _page(0), _page(2), _page(1) + 4, _page(3)])

    state = _segments_and_references(config, scenario)
    assert state["results"][1]["traps"] == 1


def test_displaced_line_traps_again_later_in_the_segment():
    def scenario(sim, task):
        sim.run(task, _WARM)
        lines, resident = _lines_of_set(sim, task, 9)
        absent = _absent(lines, resident)
        sim.run(
            task,
            [absent[0], resident, absent[0], resident, absent[1], absent[0]],
        )

    state = _segments_and_references(_DM, scenario)
    assert state["results"][1]["traps"] == 6


def test_displaced_page_traps_again_later_in_the_segment():
    config = TapewormConfig(structure="tlb", tlb=TLBConfig(n_entries=2))

    def scenario(sim, task):
        sim.run(task, [_page(vpn) for vpn in range(3)])
        # three pages round-robin through two entries: every one misses
        sim.run(task, [_page(k % 3) + 4 * k for k in range(9)])

    state = _segments_and_references(config, scenario)
    assert state["results"][1]["traps"] == 9


def test_breakpoint_hits_between_ecc_traps():
    def scenario(sim, task):
        sim.run(task, _WARM)

        def on_breakpoint(frame) -> int:
            return 7

        sim.machine.dispatcher.install(TrapKind.BREAKPOINT, on_breakpoint)
        sim.machine.enable_mechanism(TrapMechanism.BREAKPOINT)
        lines, resident = _lines_of_set(sim, task, 11)
        absent = _absent(lines, resident)
        sim.machine.breakpoints.set_breakpoint(absent[0], 8)
        sim.run(
            task,
            [absent[0], resident, absent[0] + 4, absent[1], absent[0],
             absent[0] + 8],
        )

    state = _segments_and_references(_DM, scenario)
    assert state["counts"][TrapKind.BREAKPOINT] == 3
