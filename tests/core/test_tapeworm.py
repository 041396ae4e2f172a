"""The Tapeworm simulator end to end on a booted kernel."""

import numpy as np
import pytest

from repro._types import Component, Indexing, PAGE_SIZE
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.kernels import unpack
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.errors import ConfigError, TapewormError
from repro.kernel.kernel import Kernel
from repro.kernel.vm import AddressSpaceLayout, Region
from repro.machine.machine import Machine, MachineConfig


def _kernel():
    machine = Machine(
        MachineConfig(memory_bytes=8 * 1024 * 1024, n_vpages=1024)
    )
    return Kernel(machine=machine, alloc_policy="sequential", trial_seed=0)


def _install(kernel, **kwargs):
    kwargs.setdefault("cache", CacheConfig(size_bytes=1024))
    tapeworm = Tapeworm(kernel, TapewormConfig(**kwargs))
    tapeworm.install()
    return tapeworm


def _simulated_task(kernel, tapeworm, name="job"):
    task = kernel.spawn(name, Component.USER)
    tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
    return task


def _refs(*addresses):
    return np.array(addresses, dtype=np.int64)


SEQ_4K = np.arange(0, 4096, 4, dtype=np.int64)


class TestInstall:
    def test_install_claims_hooks(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        assert kernel.tapeworm is tapeworm
        assert kernel.vm.on_register_page is not None
        with pytest.raises(TapewormError):
            tapeworm.install()

    def test_second_instance_rejected(self):
        kernel = _kernel()
        _install(kernel)
        other = Tapeworm(
            kernel, TapewormConfig(cache=CacheConfig(size_bytes=1024))
        )
        with pytest.raises(TapewormError):
            other.install()

    def test_uninstall_releases_everything(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        tapeworm.uninstall()
        assert kernel.tapeworm is None
        assert kernel.vm.on_register_page is None
        _install(kernel)  # can install again

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TapewormConfig(structure="victim_cache")
        with pytest.raises(ConfigError):
            TapewormConfig(structure="tlb")
        with pytest.raises(ConfigError):
            TapewormConfig(structure="two_level", cache=CacheConfig(size_bytes=1024))


class TestMissCounting:
    def test_compulsory_misses_equal_lines_touched(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:256])  # 1024 bytes = 64 lines
        assert tapeworm.stats.misses[Component.USER] == 64

    def test_rereferences_run_free(self):
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=4096))
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K)
        first = tapeworm.stats.total_misses
        kernel.run_chunk(task, SEQ_4K)  # fits the 4 KB cache entirely
        assert tapeworm.stats.total_misses == first

    def test_conflict_misses_trap_again(self):
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=64))
        task = _simulated_task(kernel, tapeworm)
        # two lines mapping the same set of the 4-set cache
        kernel.run_chunk(task, _refs(0x000, 0x040, 0x000, 0x040))
        assert tapeworm.stats.total_misses == 4

    def test_unsimulated_task_never_misses(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = kernel.spawn("bystander", Component.USER)
        kernel.run_chunk(task, SEQ_4K)
        assert tapeworm.stats.total_misses == 0
        assert len(tapeworm.registry) == 0

    def test_misses_attributed_to_component(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        tapeworm.tw_attributes(0, simulate=1, inherit=0)  # the kernel
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:64])
        kernel_task = kernel.tasks.get(0)
        kernel.run_chunk(kernel_task, SEQ_4K[:64])
        assert tapeworm.stats.misses[Component.USER] == 16
        assert tapeworm.stats.misses[Component.KERNEL] == 16

    def test_overhead_cycles_track_misses(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:128])
        assert tapeworm.overhead_cycles == tapeworm.stats.total_misses * 246


class TestTrapStateInvariant:
    def test_traps_complement_cache_contents(self):
        """The core invariant: a registered location is trapped iff its
        line is absent from the simulated cache."""
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=256))
        task = _simulated_task(kernel, tapeworm)
        rng = np.random.default_rng(7)
        for _ in range(20):
            addrs = (rng.integers(0, 512, size=64) * 4).astype(np.int64)
            kernel.run_chunk(task, addrs)
        table = kernel.machine.mmu.table(task.tid)
        cache = tapeworm.structure
        for vpn in table.mapped_vpns():
            pa_page = table.frame_of(int(vpn)) * PAGE_SIZE
            for offset in range(0, PAGE_SIZE, 16):
                trapped = kernel.machine.ecc.is_trapped(pa_page + offset)
                cached = cache.contains(task.tid, pa_page + offset)
                assert trapped != cached, (
                    f"offset {offset:#x}: trapped={trapped} cached={cached}"
                )


class TestAttributes:
    def test_attribute_flip_registers_existing_pages(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = kernel.spawn("late", Component.USER)
        kernel.run_chunk(task, SEQ_4K[:64])  # maps a page, unregistered
        assert tapeworm.stats.total_misses == 0
        tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
        assert len(tapeworm.registry) == 1
        kernel.run_chunk(task, SEQ_4K[:64])
        assert tapeworm.stats.total_misses == 16

    def test_attribute_clear_removes_pages(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:64])
        tapeworm.tw_attributes(task.tid, simulate=0, inherit=0)
        assert len(tapeworm.registry) == 0
        before = tapeworm.stats.total_misses
        kernel.run_chunk(task, SEQ_4K)
        assert tapeworm.stats.total_misses == before

    def test_fork_tree_measured_through_shell(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        shell = kernel.spawn("shell", Component.USER)
        tapeworm.tw_attributes(shell.tid, simulate=0, inherit=1)
        child = kernel.fork(shell.tid, "workload")
        grandchild = kernel.fork(child.tid, "helper")
        kernel.run_chunk(shell, SEQ_4K[:64])
        assert tapeworm.stats.total_misses == 0  # shell excluded
        kernel.run_chunk(child, SEQ_4K[:64])
        kernel.run_chunk(grandchild, SEQ_4K[64:128])
        assert tapeworm.stats.total_misses == 32


class TestSharedPages:
    LAYOUT = AddressSpaceLayout(
        regions=(Region(name="text", start_vpn=0, n_pages=1, share_key="sh"),)
    )

    def test_second_task_benefits_from_shared_lines(self):
        """Paper: a new task benefits from shared entries brought into
        the cache by another task — no new traps on re-registration."""
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=4096))
        a = kernel.spawn("a", Component.USER, layout=self.LAYOUT)
        b = kernel.spawn("b", Component.USER, layout=self.LAYOUT)
        for task in (a, b):
            tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
        kernel.run_chunk(a, SEQ_4K[:256])
        first = tapeworm.stats.total_misses
        kernel.run_chunk(b, SEQ_4K[:256])  # same physical lines
        assert tapeworm.stats.total_misses == first

    def test_flush_waits_for_last_unmap(self):
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=4096))
        a = kernel.spawn("a", Component.USER, layout=self.LAYOUT)
        b = kernel.spawn("b", Component.USER, layout=self.LAYOUT)
        for task in (a, b):
            tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
        kernel.run_chunk(a, SEQ_4K[:64])
        kernel.run_chunk(b, SEQ_4K[:64])
        kernel.exit_task(a.tid)
        # b still maps the frame: cache keeps the lines
        assert tapeworm.structure.occupancy() == 16
        kernel.exit_task(b.tid)
        assert tapeworm.structure.occupancy() == 0


class TestPageRemoval:
    def test_task_exit_clears_traps_and_cache(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:64])
        table = kernel.machine.mmu.table(task.tid)
        frame = table.frame_of(0)
        kernel.exit_task(task.tid)
        assert len(tapeworm.registry) == 0
        assert tapeworm.structure.occupancy() == 0
        assert not kernel.machine.ecc.is_trapped(frame * PAGE_SIZE)

    def test_refault_after_removal_recounts(self):
        kernel = _kernel()
        tapeworm = _install(kernel, cache=CacheConfig(size_bytes=4096))
        task = _simulated_task(kernel, tapeworm, "first")
        kernel.run_chunk(task, SEQ_4K[:64])
        kernel.exit_task(task.tid)
        again = _simulated_task(kernel, tapeworm, "second")
        kernel.run_chunk(again, SEQ_4K[:64])
        assert tapeworm.stats.total_misses == 32  # cold both times


class TestIndexing:
    def test_virtual_indexing_separates_tasks(self):
        kernel = _kernel()
        config = CacheConfig(size_bytes=4096, indexing=Indexing.VIRTUAL)
        tapeworm = _install(kernel, cache=config)
        a = _simulated_task(kernel, tapeworm, "a")
        b = _simulated_task(kernel, tapeworm, "b")
        kernel.run_chunk(a, SEQ_4K[:64])
        kernel.run_chunk(b, SEQ_4K[:64])  # same VAs, private frames
        assert tapeworm.stats.total_misses == 32
        # identical VAs index identical sets: in a direct-mapped virtual
        # cache, b's differently-tagged lines displaced a's
        keys = tapeworm.structure.resident_keys()
        assert {unpack(key)[1] for key in keys} == {b.tid}
        # ...so a traps again on its next pass (conflict misses)
        kernel.run_chunk(a, SEQ_4K[:64])
        assert tapeworm.stats.misses[Component.USER] == 48

    def test_virtual_displacement_translates_to_physical_trap(self):
        kernel = _kernel()
        config = CacheConfig(size_bytes=64, indexing=Indexing.VIRTUAL)
        tapeworm = _install(kernel, cache=config)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, _refs(0x000, 0x040, 0x000))
        assert tapeworm.stats.total_misses == 3
        table = kernel.machine.mmu.table(task.tid)
        pa = table.frame_of(0) * PAGE_SIZE
        # 0x040 was displaced by the second 0x000 miss: trapped again
        assert kernel.machine.ecc.is_trapped(pa + 0x40)


class TestSampling:
    def test_traps_only_on_sampled_sets(self):
        kernel = _kernel()
        tapeworm = _install(
            kernel, cache=CacheConfig(size_bytes=4096), sampling=4,
            sampling_seed=5,
        )
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K)
        # 256 lines touched; only ~1/4 of sets sampled
        sampled_sets = set(tapeworm.sampler.sampled_sets().tolist())
        assert tapeworm.stats.total_misses == len(sampled_sets)

    @pytest.mark.parametrize("indexing", list(Indexing))
    @pytest.mark.parametrize("line_bytes", [16, 64])
    def test_page_registration_traps_each_sampled_line(
        self, indexing, line_bytes
    ):
        """Registering a page sets, in one bulk write, exactly what one
        ``tw_set_trap`` per sampled line would: the bits, the counts and
        the recent-set log."""
        kernel = _kernel()
        config = CacheConfig(
            size_bytes=4096, line_bytes=line_bytes, indexing=indexing
        )
        tapeworm = _install(kernel, cache=config, sampling=4, sampling_seed=3)
        ecc, primitives = kernel.machine.ecc, tapeworm.primitives
        ecc.drain_recent_sets()
        pa, va = 5 * PAGE_SIZE, 9 * PAGE_SIZE
        tapeworm.tw_register_page(1, pa, va)
        index_base = va if indexing is Indexing.VIRTUAL else pa
        lines = [
            pa + offset
            for offset in range(0, PAGE_SIZE, line_bytes)
            if tapeworm.sampler.covers_set(config.set_of(index_base + offset))
        ]
        granules = [
            line // 16 + k for line in lines for k in range(line_bytes // 16)
        ]
        assert 0 < len(lines) < PAGE_SIZE // line_bytes
        assert ecc.drain_recent_sets() == granules
        assert np.flatnonzero(ecc.granule_trapped).tolist() == granules
        assert ecc.tapeworm_granules().tolist() == granules
        assert ecc.stats_sets == primitives.set_calls == len(lines)

    def test_estimate_scales_by_denominator(self):
        kernel = _kernel()
        tapeworm = _install(
            kernel, cache=CacheConfig(size_bytes=4096), sampling=4
        )
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K)
        assert tapeworm.estimated_total_misses() == (
            tapeworm.stats.total_misses * 4
        )


class TestTrueErrors:
    def test_true_error_detected_not_counted(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:4])  # map + register the page
        table = kernel.machine.mmu.table(task.tid)
        pa = table.frame_of(0) * PAGE_SIZE
        misses_before = tapeworm.stats.total_misses
        kernel.machine.ecc.inject_true_error(pa + 0x800, bit=9)
        kernel.run_chunk(task, _refs(0x800))
        assert tapeworm.true_errors_detected == 1
        # the reference at 0x800 was a real miss too, but the handler
        # classified the trap as a true error and only scrubbed it
        assert tapeworm.stats.total_misses >= misses_before


class TestStatsInterface:
    def test_snapshot_is_a_copy(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:64])
        snapshot = tapeworm.snapshot_stats()
        kernel.run_chunk(task, SEQ_4K[64:128])
        assert snapshot.total_misses < tapeworm.stats.total_misses

    def test_reset(self):
        kernel = _kernel()
        tapeworm = _install(kernel)
        task = _simulated_task(kernel, tapeworm)
        kernel.run_chunk(task, SEQ_4K[:64])
        tapeworm.reset_stats()
        assert tapeworm.stats.total_misses == 0
        assert tapeworm.overhead_cycles == 0
