"""MachineFaultInjector: per-class effects and (plan, seed) replay."""

import numpy as np
import pytest

from repro._types import KERNEL_TID, PAGE_SIZE, Component, Indexing
from repro.caches.config import CacheConfig
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.faults.injector import MachineFaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.kernel.kernel import Kernel
from repro.kernel.servers import kernel_layout
from repro.machine.machine import Machine, MachineConfig


def _booted():
    machine = Machine(
        MachineConfig(memory_bytes=8 * 1024 * 1024, n_vpages=512)
    )
    kernel = Kernel(machine=machine, alloc_policy="sequential")
    tapeworm = Tapeworm(
        kernel, TapewormConfig(cache=CacheConfig(size_bytes=2048))
    )
    tapeworm.install()
    task = kernel.spawn("victim", Component.USER)
    tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
    vas = np.arange(0, 8192, 4, dtype=np.int64)
    kernel.run_chunk(task, vas)
    return machine, kernel, tapeworm, task, vas


def _plan(kind: FaultKind, start: int = 0) -> FaultPlan:
    return FaultPlan(specs=(FaultSpec(kind, start=start),), seed=7)


def _fire(tapeworm, plan, task, vas, chunks: int = 1):
    injector = MachineFaultInjector(tapeworm, plan, trial_seed=0)
    injector.arm()
    for _ in range(chunks):
        injector.on_chunk(task.tid, task.component, vas)
    return injector


class TestPerKind:
    def test_ecc_single_lands_on_an_untrapped_granule(self):
        machine, _, tapeworm, task, vas = _booted()
        injector = _fire(tapeworm, _plan(FaultKind.ECC_SINGLE), task, vas)
        assert injector.injections_applied(FaultKind.ECC_SINGLE) == 1
        entry = injector.ledger[0]
        assert entry.pa is not None
        assert not machine.ecc.is_tapeworm_trapped(entry.pa)
        assert machine.ecc.true_error_granules()[entry.granule] == 1

    def test_ecc_double_plants_two_bits(self):
        machine, _, tapeworm, task, vas = _booted()
        injector = _fire(tapeworm, _plan(FaultKind.ECC_DOUBLE), task, vas)
        entry = injector.ledger[0]
        assert entry.applied
        assert machine.ecc.true_error_granules()[entry.granule] == 2

    def test_dma_clear_erases_a_planted_trap(self):
        machine, _, tapeworm, task, vas = _booted()
        injector = _fire(tapeworm, _plan(FaultKind.DMA_TRAP_CLEAR), task, vas)
        entry = injector.ledger[0]
        assert entry.applied
        assert not machine.ecc.is_tapeworm_trapped(entry.pa)

    def test_spurious_trap_lands_on_a_resident_line(self):
        machine, _, tapeworm, task, vas = _booted()
        injector = _fire(tapeworm, _plan(FaultKind.SPURIOUS_TRAP), task, vas)
        entry = injector.ledger[0]
        assert entry.applied
        assert machine.ecc.is_tapeworm_trapped(entry.pa)
        assert tapeworm.structure.contains(0, entry.pa)

    def test_spurious_trap_finds_kernel_lines_in_a_virtual_cache(self):
        """Under virtual indexing the kernel task's keys carry space 0
        too; they hold virtual lines, which must be translated."""
        machine = Machine(
            MachineConfig(memory_bytes=8 * 1024 * 1024, n_vpages=512)
        )
        kernel = Kernel(machine=machine, alloc_policy="sequential")
        config = CacheConfig(size_bytes=2048, indexing=Indexing.VIRTUAL)
        tapeworm = Tapeworm(kernel, TapewormConfig(cache=config))
        tapeworm.install()
        task = kernel.tasks.get(KERNEL_TID)
        tapeworm.tw_attributes(KERNEL_TID, simulate=1, inherit=0)
        base = kernel_layout().region_named("text").start_va
        vas = np.arange(base, base + 2048, 4, dtype=np.int64)
        kernel.run_chunk(task, vas)
        injector = _fire(tapeworm, _plan(FaultKind.SPURIOUS_TRAP), task, vas)
        entry = injector.ledger[0]
        assert entry.applied, entry.detail
        assert machine.ecc.is_tapeworm_trapped(entry.pa)
        (tid, vpn), = tapeworm.registry.mappings_of_frame(entry.pa)
        va = vpn * PAGE_SIZE + entry.pa % PAGE_SIZE
        assert tapeworm.structure.contains(tid, va)

    def test_trap_clear_drop_swallows_the_next_clear(self):
        machine, kernel, tapeworm, task, vas = _booted()
        injector = _fire(tapeworm, _plan(FaultKind.TRAP_CLEAR_DROP), task, vas)
        assert injector.dropped_clears == []  # armed, nothing dropped yet
        # the next chunk's first miss clears a trap — that clear is lost
        kernel.run_chunk(task, np.arange(8192, 12288, 4, dtype=np.int64))
        assert len(injector.dropped_clears) == 1
        pa, _size = injector.dropped_clears[0]
        entry = injector.ledger[0]
        assert entry.pa == pa  # the ledger was backfilled on consumption
        assert "dropped tw_clear_trap" in entry.detail

    def test_disarm_restores_the_primitive(self):
        _, _, tapeworm, task, vas = _booted()
        original = tapeworm.primitives.tw_clear_trap
        injector = _fire(tapeworm, _plan(FaultKind.TRAP_CLEAR_DROP), task, vas)
        assert tapeworm.primitives.tw_clear_trap != original
        injector.disarm()
        assert tapeworm.primitives.tw_clear_trap == original

    def test_infra_kind_is_rejected(self):
        _, _, tapeworm, task, vas = _booted()
        plan = _plan(FaultKind.WORKER_KILL)
        injector = MachineFaultInjector(tapeworm, plan, trial_seed=0)
        # infra specs never enter the machine schedule
        assert injector._schedule == {}


class TestLedgerCap:
    def _injector(self):
        _, _, tapeworm, _, _ = _booted()
        return MachineFaultInjector(
            tapeworm, _plan(FaultKind.ECC_SINGLE), trial_seed=0
        )

    def test_ledger_rotates_but_counts_stay_exact(self, caplog):
        from repro.faults.injector import LEDGER_CAP, Injection

        injector = self._injector()
        total = LEDGER_CAP * 2 + 10
        with caplog.at_level("WARNING", logger="repro.faults.injector"):
            for i in range(total):
                injector._ledger_append(
                    Injection(FaultKind.ECC_SINGLE, chunk_index=i, detail="x")
                )
        assert len(injector.ledger) <= LEDGER_CAP
        assert injector.ledger_rotations >= 2
        # rotation loses narrative detail, never counts
        assert injector.injections_applied() == total
        assert injector.injections_applied(FaultKind.ECC_SINGLE) == total
        # the survivors are the newest entries
        assert injector.ledger[-1].chunk_index == total - 1
        warned = [
            r for r in caplog.records if "rotating" in r.getMessage()
        ]
        assert len(warned) == 1  # log-once: later rotations are silent

    def test_unapplied_entries_are_kept_but_not_counted(self):
        from repro.faults.injector import Injection

        injector = self._injector()
        injector._ledger_append(
            Injection(
                FaultKind.ECC_SINGLE, chunk_index=0, detail="no target",
                applied=False,
            )
        )
        assert len(injector.ledger) == 1
        assert injector.injections_applied() == 0


class TestReplay:
    def test_same_plan_and_seed_replays_the_same_ledger(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(FaultKind.ECC_SINGLE, count=2, start=0, every=1),
                FaultSpec(FaultKind.SPURIOUS_TRAP, start=1),
            ),
            seed=99,
        )
        ledgers = []
        for _ in range(2):
            _, _, tapeworm, task, vas = _booted()
            injector = _fire(tapeworm, plan, task, vas, chunks=2)
            ledgers.append(
                [(e.kind, e.chunk_index, e.pa, e.detail) for e in injector.ledger]
            )
        assert ledgers[0] == ledgers[1]

    def test_different_plan_seed_diverges(self):
        results = []
        for seed in (1, 2):
            _, _, tapeworm, task, vas = _booted()
            plan = FaultPlan(
                specs=(FaultSpec(FaultKind.ECC_SINGLE),), seed=seed
            )
            injector = _fire(tapeworm, plan, task, vas)
            results.append(injector.ledger[0].pa)
        assert results[0] != results[1]
