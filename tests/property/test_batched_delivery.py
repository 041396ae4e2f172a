"""Differential tests: batched trap delivery against per-trap delivery.

On a direct-mapped, physically indexed cache, Tapeworm installs a batch
handler that delivers all of a segment's ECC traps as one vectorized
update, and declines any segment whose trap state fails its check.
Each script here runs twice: as configured (batched), and with the
batch handler withdrawn, so every trap takes the per-trap path.  The
two runs must leave the complete simulated state identical — chunk
results, miss statistics and overhead, dispatcher counts, both ECC
bitmaps, cache contents and insertion counts, every set/clear counter,
and every simulated-clock timeline record.

The fixed cases build the states the batch must decline (a trap erased
by unshielded DMA, a spurious trap, a pending true error) and the
segments the CPU never offers (masked interrupts, stores); each must
still match per-trap delivery.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._types import PAGE_SIZE, Component, Indexing
from repro.caches.config import CacheConfig
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.errors import DoubleBitError
from repro.kernel.kernel import Kernel
from repro.machine.dma import DMAEngine
from repro.machine.machine import Machine, MachineConfig
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
    """A booted machine with Tapeworm installed and a shell task."""

    def __init__(self, setup: dict, batched: bool) -> None:
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
        self.tapeworm = Tapeworm(
            self.kernel,
            TapewormConfig(
                cache=CacheConfig(
                    size_bytes=setup["size_bytes"],
                    line_bytes=setup["line_bytes"],
                ),
                sampling=setup["sampling"],
                sampling_seed=setup["sampling_seed"],
            ),
        )
        self.tapeworm.install()
        if not batched:
            assert machine.dispatcher.withdraw_batch(TrapKind.ECC_ERROR)
        self.machine = machine
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
        result = self.kernel.run_chunk(task, vas, writes)
        self.results.append(dataclasses.asdict(result))

    def step(self, step: tuple) -> None:
        action = step[0]
        if action == "run":
            _, slot, runs = step
            tasks = self.tasks()
            vas = np.concatenate(
                [
                    vpn * PAGE_SIZE + 4 * (word + np.arange(length))
                    for vpn, word, length in runs
                ]
            )
            self.run(tasks[slot % len(tasks)], vas)
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

    def state(self) -> dict:
        """Everything per-trap and batched delivery must agree on."""
        machine, tapeworm = self.machine, self.tapeworm
        ecc, cache = machine.ecc, tapeworm.structure
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
            "resident": sorted(cache.resident_keys()),
            "insertions": cache.insertions,
            "ecc_sets": ecc.stats_sets,
            "ecc_clears": ecc.stats_clears,
            "set_calls": primitives.set_calls,
            "clear_calls": primitives.clear_calls,
            "clock": machine.clock.now,
        }


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


def _warmed(batched: bool) -> tuple[Sim, object]:
    sim = Sim(_FIXED, batched)
    task = sim.kernel.fork(sim.shell.tid, "victim")
    sim.run(task, _WARM)
    return sim, task


def _pa(sim: Sim, task, va: int) -> int:
    return int(sim.machine.mmu.table(task.tid).translate(np.array([va]))[0])


def _lines_of_set(sim: Sim, task, set_index: int) -> tuple[list[int], int]:
    """The warm-up's line vas in one set, and the resident one."""
    cache = sim.tapeworm.structure
    lines = [
        int(va) for va in _WARM[::4]
        if cache.config.set_of(_pa(sim, task, int(va))) == set_index
    ]
    resident = [
        va for va in lines if cache.contains(task.tid, _pa(sim, task, va))
    ]
    assert len(lines) == 4 and len(resident) == 1
    return lines, resident[0]


def _perturb_and_run(perturb, chunks, batched: bool) -> tuple[dict, dict]:
    sim, task = _warmed(batched)
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


def _same_as_per_trap(perturb, chunks) -> tuple[dict, dict]:
    """Both runs' final state, which must agree, and the batched run's
    segment counts by path."""
    batched, delta = _perturb_and_run(perturb, chunks, batched=True)
    reference, _ = _perturb_and_run(perturb, chunks, batched=False)
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
