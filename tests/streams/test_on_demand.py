"""Streams generated on demand: a session generates about what runs read.

The session's memo holds one prefix per stream key and grows it
geometrically as cursors read past its end.  These tests pin what that
buys and what it must never cost: generation bounded by the reads,
sessions freed by reference counting, reads past an earlier prefix
bit-identical to live generation, and a store that keeps the longest
prefix per key.
"""

import gc
import weakref

import numpy as np

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.sampling import profile_workload
from repro.streams import (
    StreamSession,
    StreamStore,
    WarmupPlan,
    build_live_stream,
    compile_stream,
    stream_fingerprint,
)
from repro.streams.session import activate, drop_inherited, enabled
from repro.workloads import get_workload


def _config():
    return TapewormConfig(cache=CacheConfig(size_bytes=4096))


def _signature(report):
    return (
        dict(report.stats.misses),
        report.traps,
        report.page_faults,
        report.ticks,
        dict(report.refs),
        report.overhead_cycles,
    )


def _in_memory():
    return StreamSession(StreamStore(enabled=False))


class TestGeneration:
    def test_a_trial_generates_at_most_twice_what_it_reads(self):
        """Every stream grows to at most twice what was read from it,
        plus its first request; compiling each of the 43 streams the
        trial opens to its budget would be ~12x the reads."""
        spec = get_workload("sdet")
        options = RunOptions(total_refs=30_000, trial_seed=1)
        session = _in_memory()
        cursors = []
        stream_for = session.stream_for

        def recording(*args):
            cursor = stream_for(*args)
            cursors.append(cursor)
            return cursor

        session.stream_for = recording
        with enabled(session):
            run_trap_driven(spec, _config(), options)
        # cursors over one stream share its (final) backing array
        read: dict[int, int] = {}
        for cursor in cursors:
            key = id(cursor.backing)
            read[key] = max(read.get(key, 0), cursor.cursor)
        assert 0 < session.compiled_refs <= (
            2 * sum(read.values()) + session.compiles * options.chunk_refs
        )

    def test_a_deactivated_session_is_freed_by_reference_counting(self):
        """No prefix, cursor or snapshot reaches back to the session, so
        it dies without the cyclic collector."""
        spec = get_workload("espresso")
        options = RunOptions(total_refs=24_000, trial_seed=2)
        warmup = WarmupPlan(warmup_refs=16_000)
        gc.collect()
        gc.disable()
        try:
            with enabled(_in_memory()) as session:
                run_trap_driven(spec, _config(), options, warmup=warmup)
                assert session.snapshots.creates == 1
            alive = weakref.ref(session)
            del session
            assert alive() is None
        finally:
            gc.enable()

    def test_a_profile_reads_past_a_prefix_a_trial_grew(self):
        """The profiler reads its whole budget through a cursor, growing
        a prefix an earlier, shorter trial left behind."""
        spec = get_workload("espresso")
        baseline = profile_workload(spec, 60_000, 4096)
        with enabled(_in_memory()):
            run_trap_driven(
                spec, _config(), RunOptions(total_refs=20_000, trial_seed=3)
            )
            profiled = profile_workload(spec, 60_000, 4096)
        assert profiled.n_intervals == baseline.n_intervals
        assert np.array_equal(profiled.features, baseline.features)


class TestStoreReadThroughAndWriteBack:
    def test_a_longer_run_extends_a_stored_prefix(self, tmp_path):
        spec = get_workload("espresso")
        key = stream_fingerprint(spec, spec.primary_task)
        short = RunOptions(total_refs=10_000, trial_seed=4)
        long = RunOptions(total_refs=40_000, trial_seed=4)
        baseline = run_trap_driven(spec, _config(), long)

        with enabled(StreamSession(StreamStore(tmp_path))):
            run_trap_driven(spec, _config(), short)
        seeded = len(StreamStore(tmp_path).get(key))

        with enabled(StreamSession(StreamStore(tmp_path))) as session:
            extended = run_trap_driven(spec, _config(), long)
            assert session.store.hits > 0 and session.compiled_refs > 0
        assert _signature(extended) == _signature(baseline)
        stored = StreamStore(tmp_path).get(key)
        assert len(stored) > seeded
        live = build_live_stream(spec.name, spec.task(spec.primary_task), False)
        assert np.array_equal(stored, compile_stream(live, len(stored)))

        with enabled(StreamSession(StreamStore(tmp_path))) as session:
            repeat = run_trap_driven(spec, _config(), long)
            assert session.compiles == 0 and session.compiled_refs == 0
        assert session.store.puts == 0  # nothing grew, nothing rewritten
        assert _signature(repeat) == _signature(baseline)

    def test_reactivating_a_session_rewrites_nothing(self, tmp_path):
        """A farm worker re-activates its cached session for every job:
        only prefixes that grew since the last write-back are stored."""
        spec = get_workload("espresso")
        options = RunOptions(total_refs=10_000, trial_seed=5)
        session = StreamSession(StreamStore(tmp_path))
        with enabled(session):
            run_trap_driven(spec, _config(), options)
        puts = session.store.puts
        assert puts > 0
        with enabled(session):
            run_trap_driven(spec, _config(), options)
        assert session.store.puts == puts

    def test_a_failed_write_back_is_retried_not_raised(
        self, tmp_path, monkeypatch, caplog
    ):
        """Another process can move a blob aside mid-rewrite, or swap in
        one of another length while the writer maps it; the store only
        saves generation, so deactivation warns and the next write-back
        tries again."""
        spec = get_workload("espresso")
        options = RunOptions(total_refs=10_000, trial_seed=7)
        for error in (
            FileNotFoundError("blob moved aside"),
            ValueError("mmap length is greater than file size"),
        ):
            directory = tmp_path / type(error).__name__
            session = StreamSession(StreamStore(directory))
            put = session.store.put

            def failing(key, array, descriptor=None, error=error):
                raise error

            monkeypatch.setattr(session.store, "put", failing)
            with enabled(session):
                run_trap_driven(spec, _config(), options)
            assert "could not write" in caplog.text
            assert not list(directory.glob("*.npy"))
            monkeypatch.setattr(session.store, "put", put)
            assert session.write_back() == session.compiles > 0

    def test_a_dropped_inherited_session_writes_nothing(self, tmp_path):
        spec = get_workload("espresso")
        activate(StreamSession(StreamStore(tmp_path)))
        try:
            run_trap_driven(
                spec, _config(), RunOptions(total_refs=10_000, trial_seed=6)
            )
        finally:
            drop_inherited()
        assert not list(tmp_path.glob("*.npy"))
