"""The telemetry contract: enabling it cannot change any result.

This is the Monster property from the paper — observation that is
"unobtrusive by construction" — restated for software telemetry: a
trap-driven run must produce a bit-identical :class:`TrapRunReport`
whether a telemetry session is active or not, while the session itself
fills with timeline records, metrics and a schema-valid manifest.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.errors import TelemetryError
from repro.harness.runner import RunOptions, run_trap_driven
from repro.telemetry import manifest as manifest_mod
from repro.telemetry.manifest import RunManifest, config_hash, validate_record
from repro.telemetry.session import (
    TelemetrySession,
    activate,
    active,
    deactivate,
    enabled,
)
from repro.telemetry.spans import SIM_CLOCK, merged_chrome_trace
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert active() is None, "a telemetry session leaked into this test"
    yield
    if active() is not None:  # pragma: no cover - cleanup on test failure
        deactivate()


def _run():
    spec = get_workload("espresso")
    config = TapewormConfig(cache=CacheConfig(size_bytes=2048))
    options = RunOptions(total_refs=30_000, trial_seed=3)
    return run_trap_driven(spec, config, options)


def _as_comparable(report) -> dict:
    fields = dataclasses.asdict(report)
    # CacheStats nests dicts/lists of plain numbers; asdict flattens it
    return fields


class TestSessionLifecycle:
    def test_activate_deactivate(self):
        session = activate()
        assert active() is session
        assert deactivate() is session
        assert active() is None

    def test_double_activate_rejected(self):
        activate()
        try:
            with pytest.raises(TelemetryError):
                activate()
        finally:
            deactivate()

    def test_deactivate_without_session_rejected(self):
        with pytest.raises(TelemetryError):
            deactivate()

    def test_enabled_scopes_session_even_on_error(self):
        with pytest.raises(RuntimeError):
            with enabled():
                assert active() is not None
                raise RuntimeError("boom")
        assert active() is None

    def test_custom_session_object_installed(self):
        session = TelemetrySession(trace_capacity=8)
        assert activate(session) is session
        assert deactivate() is session


class TestBitIdentical:
    def test_trap_run_report_identical_with_and_without_telemetry(self):
        baseline = _run()
        with enabled() as session:
            observed = _run()
        control = _run()

        # the harness is deterministic: two plain runs agree exactly...
        assert _as_comparable(baseline) == _as_comparable(control)
        # ...and the telemetered run is bit-identical to both,
        # field by field (slowdown is a float: equality, not approx)
        assert _as_comparable(observed) == _as_comparable(baseline)
        assert observed.slowdown == baseline.slowdown
        assert observed.estimated_misses == baseline.estimated_misses

        # while telemetry genuinely observed the run
        assert session.spans.records(SIM_CLOCK)
        assert len(session.metrics) > 0
        snapshot = session.metrics.snapshot()
        assert snapshot["tapeworm.overhead_cycles"] == baseline.overhead_cycles
        assert snapshot["machine.traps.dispatched{kind=ecc_error}"] > 0

    def test_metrics_agree_with_report(self):
        with enabled() as session:
            report = _run()
        snapshot = session.metrics.snapshot()
        assert snapshot["tapeworm.estimated_misses"] == report.estimated_misses
        # zero-valued counters are elided from publication
        assert snapshot.get("tapeworm.l2_misses", 0) == report.stats.l2_misses
        misses = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("tapeworm.misses{")
        )
        assert misses == report.stats.total_misses
        total_refs = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("machine.cpu.refs{")
        )
        assert total_refs == report.total_refs

    def test_trace_exports_valid_chrome_trace(self, tmp_path):
        with enabled() as session:
            _run()
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(merged_chrome_trace(session)))
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert any(e.get("cat") == "trap" for e in events)
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        # timestamps are monotone-ish in simulated time per lane: at
        # minimum every non-metadata event carries a numeric ts
        assert all(
            isinstance(e["ts"], (int, float)) for e in events if e["ph"] != "M"
        )

    def test_manifest_from_run_is_schema_valid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            manifest_mod, "DEFAULT_MANIFEST_PATH", tmp_path / "manifests.jsonl"
        )
        with enabled() as session:
            report = _run()
        manifest = RunManifest(
            kind="run",
            name=report.workload,
            configuration=report.configuration,
            config_hash=config_hash({"workload": report.workload}),
            seed=report.trial_seed,
            wall_clock_secs=0.5,
            metrics=session.metrics.snapshot(),
            results={"misses": report.stats.total_misses},
        )
        path = manifest_mod.write_manifest(manifest)
        assert path == tmp_path / "manifests.jsonl"
        (record,) = manifest_mod.read_manifests()
        assert validate_record(record) == []
        assert record["results"]["misses"] == report.stats.total_misses


class TestGridSweepUnobtrusive:
    """The pin extends to grid sweeps: telemetry cannot perturb them."""

    def _sweep(self):
        from repro.caches.config import GridConfig
        from repro.caches.gridsweep import run_grid_sweep

        grid = GridConfig((32, 64), (1, 2, 4))
        return run_grid_sweep(get_workload("espresso"), 25_000, grid)

    def test_grid_report_identical_with_and_without_telemetry(self):
        baseline = self._sweep()
        with enabled() as session:
            observed = self._sweep()

        # wall-clock timing is the only field allowed to differ
        assert dataclasses.replace(
            observed, distance_secs=baseline.distance_secs
        ) == baseline

        # while the session genuinely observed the sweep
        snapshot = session.metrics.snapshot()
        assert snapshot["sweep.grid.passes"] == observed.passes
        assert snapshot["sweep.grid.configs"] == observed.grid.n_cells
        spans = [s for s in session.spans.spans if s.name == "sweep.grid"]
        assert len(spans) == 1
        assert spans[0].args["workload"] == "espresso"

    def test_grid_metrics_agree_with_report(self):
        with enabled() as session:
            report = self._sweep()
        snapshot = session.metrics.snapshot()
        assert snapshot["sweep.grid.passes"] == report.passes
        assert snapshot["sweep.grid.configs"] == len(report.miss_counts)


class TestBoundedTrace:
    def test_tiny_ring_drops_but_run_is_unaffected(self):
        baseline = _run()
        with enabled(trace_capacity=16) as session:
            observed = _run()
        assert session.spans.dropped > 0
        assert len(session.spans.records(SIM_CLOCK)) == 16
        assert _as_comparable(observed) == _as_comparable(baseline)
