"""The profiling hooks: off means off, on means observed — never changed.

``phase()`` wraps kernel/stream/sampling hot paths.  The contract has
two halves: with profiling off the hook is a shared null context (no
timer, no allocation, no session traffic), and with profiling on the
simulation's results are still bit-identical — the phase timers only
*watch* (the Monster property, extended to the profiler).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.telemetry.profile import (
    KNOWN_PHASES,
    PROFILE_BUCKET_SECS,
    phase,
    profiling_enabled,
)
from repro.telemetry.session import active, deactivate, enabled
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert active() is None, "a telemetry session leaked into this test"
    yield
    if active() is not None:  # pragma: no cover - cleanup on test failure
        deactivate()


def _run(associativity: int = 1):
    spec = get_workload("espresso")
    config = TapewormConfig(
        cache=CacheConfig(size_bytes=2048, associativity=associativity)
    )
    options = RunOptions(total_refs=30_000, trial_seed=3)
    return run_trap_driven(spec, config, options)


class TestPhaseGate:
    def test_no_session_returns_shared_null_context(self):
        assert profiling_enabled() is False
        first = phase("kernels.dm_pass")
        second = phase("kernels.tlb_chunk")
        assert first is second  # the shared singleton, not an allocation
        with first:
            pass  # and it is a usable context manager

    def test_plain_session_keeps_profiling_off(self):
        with enabled() as session:
            assert profiling_enabled() is False
            with phase("kernels.dm_pass"):
                pass
        assert len(session.metrics) == 0
        assert len(session.spans) == 0

    def test_profile_session_publishes_histogram_and_span(self):
        with enabled(profile=True) as session:
            assert profiling_enabled() is True
            with phase("machine.rescan_index", kind="granule"):
                pass
        snapshot = session.metrics.snapshot()
        series = snapshot["profile.machine.rescan_index{kind=granule}"]
        assert series["count"] == 1
        assert series["sum"] >= 0.0
        (span,) = session.spans.spans
        assert span.name == "profile.machine.rescan_index"
        assert span.args == {"kind": "granule"}
        assert span.dur_us >= 0.0

    def test_phase_nests_under_enclosing_span(self):
        with enabled(profile=True) as session:
            with session.spans.span("farm.job") as job:
                with phase("kernels.dm_pass"):
                    pass
        job_span, phase_span = session.spans.spans
        assert phase_span.parent_id == job.span_id

    def test_exception_still_publishes(self):
        with enabled(profile=True) as session:
            with pytest.raises(RuntimeError):
                with phase("streams.blob_map"):
                    raise RuntimeError("boom")
        assert (
            session.metrics.snapshot()["profile.streams.blob_map"]["count"]
            == 1
        )

    def test_known_phases_are_valid_metric_names(self):
        # every wired phase must produce a legal registry key
        with enabled(profile=True) as session:
            for name in KNOWN_PHASES:
                with phase(name):
                    pass
        snapshot = session.metrics.snapshot()
        for name in KNOWN_PHASES:
            assert snapshot[f"profile.{name}"]["count"] == 1

    def test_bucket_bounds_are_ascending(self):
        assert list(PROFILE_BUCKET_SECS) == sorted(PROFILE_BUCKET_SECS)


class TestUnobtrusive:
    def test_report_bit_identical_with_profiling_on(self):
        baseline = _run()
        with enabled(profile=True) as session:
            profiled = _run()
        control = _run()

        assert dataclasses.asdict(profiled) == dataclasses.asdict(baseline)
        assert dataclasses.asdict(control) == dataclasses.asdict(baseline)
        assert profiled.slowdown == baseline.slowdown

        # while the profiler genuinely measured the run: a direct-mapped
        # physical cache takes its traps a segment at a time under a
        # phase timer
        snapshot = session.metrics.snapshot()
        profile_keys = [k for k in snapshot if k.startswith("profile.")]
        assert profile_keys, "profiling on but no profile.* series"
        assert snapshot["profile.machine.trap_batch"]["count"] > 0

    def test_per_trap_rescans_profiled_bit_identically(self):
        # a 2-way cache keeps per-trap delivery, which rebuilds its
        # rescan index under a phase timer
        baseline = _run(associativity=2)
        with enabled(profile=True) as session:
            profiled = _run(associativity=2)

        assert dataclasses.asdict(profiled) == dataclasses.asdict(baseline)
        snapshot = session.metrics.snapshot()
        assert (
            snapshot["profile.machine.rescan_index{kind=granule}"]["count"] > 0
        )
        assert "profile.machine.trap_batch" not in snapshot

    def test_profile_off_records_no_profile_series(self):
        with enabled() as session:
            _run()
        assert not [
            k for k in session.metrics.snapshot() if k.startswith("profile.")
        ]


class TestKernelPhases:
    """The replay kernels fire their phase timers, bit-identically."""

    def _addresses(self):
        import numpy as np

        rng = np.random.default_rng(11)
        return rng.integers(0, 1 << 16, size=4_096, dtype=np.int64)

    def test_dm_and_grouped_set_phases_fire_without_changing_misses(self):
        from repro.caches.config import CacheConfig
        from repro.tracing.cache2000 import Cache2000

        addresses = self._addresses()
        baseline_dm = Cache2000(
            CacheConfig(size_bytes=2048)
        ).simulate_chunk(addresses)
        baseline_4way = Cache2000(
            CacheConfig(size_bytes=2048, associativity=4)
        ).simulate_chunk(addresses)

        with enabled(profile=True) as session:
            dm = Cache2000(
                CacheConfig(size_bytes=2048)
            ).simulate_chunk(addresses)
            assoc = Cache2000(
                CacheConfig(size_bytes=2048, associativity=4)
            ).simulate_chunk(addresses)
        assert dm == baseline_dm
        assert assoc == baseline_4way
        snapshot = session.metrics.snapshot()
        assert snapshot["profile.kernels.dm_pass"]["count"] == 1
        assert snapshot["profile.kernels.grouped_set"]["count"] == 1

    def test_tlb_chunk_phase_fires_without_changing_misses(self):
        from repro.caches.config import TLBConfig
        from repro.caches.tlb import SimulatedTLB

        vpns = self._addresses() >> 12
        baseline = SimulatedTLB(TLBConfig(32)).access_chunk(0, vpns)
        with enabled(profile=True) as session:
            observed = SimulatedTLB(TLBConfig(32)).access_chunk(0, vpns)
        assert observed == baseline
        assert (
            session.metrics.snapshot()["profile.kernels.tlb_chunk"]["count"]
            == 1
        )
