"""TrapInvariantAuditor: clean state audits clean, tampering is caught.

The invariant under audit is the paper's central bookkeeping rule: a
sampled granule of a registered frame carries a Tapeworm trap *exactly
when* the simulated structure does not hold its line.  Every test
tampers with the machine the way a real hazard would — behind the
simulator's back — and asserts the auditor names the damage.
"""

import numpy as np

from repro._types import Component, PAGE_SIZE
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.kernels import unpack
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.faults.auditor import TrapInvariantAuditor
from repro.kernel.kernel import Kernel
from repro.machine.dma import DMAEngine
from repro.machine.machine import Machine, MachineConfig


def _booted(config=None):
    machine = Machine(
        MachineConfig(memory_bytes=8 * 1024 * 1024, n_vpages=512)
    )
    kernel = Kernel(machine=machine, alloc_policy="sequential")
    tapeworm = Tapeworm(
        kernel,
        config or TapewormConfig(cache=CacheConfig(size_bytes=2048)),
    )
    tapeworm.install()
    task = kernel.spawn("victim", Component.USER)
    tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)
    kernel.run_chunk(task, np.arange(0, 8192, 4, dtype=np.int64))
    return machine, kernel, tapeworm, task


class TestCleanState:
    def test_untampered_run_audits_clean(self):
        _, _, tapeworm, _ = _booted()
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        assert report.clean
        assert report.checks > 0
        assert report.skipped_frames == 0

    def test_tlb_structure_audits_clean(self):
        _, _, tapeworm, _ = _booted(
            TapewormConfig(structure="tlb", tlb=TLBConfig(n_entries=16))
        )
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        assert report.clean
        assert report.checks > 0


class TestTampering:
    def test_dma_cleared_trap_is_a_missing_trap(self):
        machine, _, tapeworm, _ = _booted()
        trapped = sorted(machine.ecc.tapeworm_granules())
        pa = int(trapped[0]) * 16
        DMAEngine(machine).write(pa, 16)  # unshielded: no Tapeworm hook
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        assert not report.clean
        divergence = report.first
        assert divergence.kind == "missing_trap"
        assert divergence.granule == pa // 16

    def test_trap_on_resident_line_is_unexpected(self):
        machine, _, tapeworm, task = _booted()
        cache = tapeworm.structure
        line, space = unpack(sorted(cache.resident_keys())[0])
        assert space == 0  # physically indexed by default
        machine.ecc.set_trap(line << 4, 16)
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        kinds = {d.kind for d in report.divergences}
        assert "unexpected_trap" in kinds

    def test_trap_outside_registered_frames_is_an_orphan(self):
        machine, _, tapeworm, _ = _booted()
        # a frame the registry never saw, trapped anyway
        orphan_pa = 8 * 1024 * 1024 - PAGE_SIZE
        assert not tapeworm.registry.is_registered_frame(orphan_pa)
        machine.ecc.set_trap(orphan_pa, 16)
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        kinds = {d.kind for d in report.divergences}
        assert "orphan_trap" in kinds

    def test_final_sweep_reports_unscrubbed_true_errors(self):
        machine, _, tapeworm, _ = _booted()
        untrapped = [
            pfn * PAGE_SIZE + offset
            for pfn in sorted(tapeworm.registry.registered_frames())
            for offset in range(0, PAGE_SIZE, 16)
            if not machine.ecc.is_tapeworm_trapped(pfn * PAGE_SIZE + offset)
        ]
        single_pa = untrapped[0]
        double_pa = untrapped[1]
        machine.ecc.inject_true_error(single_pa, bit=3)
        machine.ecc.inject_true_error(double_pa, bit=5, double=True)
        report = TrapInvariantAuditor(tapeworm).audit(final=True)
        kinds = {d.kind for d in report.divergences}
        assert "stale_true_error" in kinds
        assert "latent_double_bit" in kinds

    def test_divergence_list_is_bounded(self):
        machine, _, tapeworm, _ = _booted()
        # trap a pile of orphan granules; the report must stay bounded
        base = 8 * 1024 * 1024 - 64 * PAGE_SIZE
        for i in range(64):
            machine.ecc.set_trap(base + i * PAGE_SIZE, 16)
        auditor = TrapInvariantAuditor(tapeworm, max_divergences=8)
        report = auditor.audit(final=True)
        assert len(report.divergences) == 8
        assert report.truncated
