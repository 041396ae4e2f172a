"""Stream delivery to workers: shared memory, attach, worker sessions."""

import numpy as np
import pytest

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.streams import (
    ShmArena,
    StreamSession,
    StreamStore,
    StreamTransport,
    transported_execute,
)
from repro.streams.session import enabled
from repro.streams.transport import attach_segments
from repro.workloads import get_workload

_REFS = 20_000


def _shm_available() -> bool:
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.close()
        probe.unlink()
        return True
    except (ImportError, OSError):
        return False


needs_shm = pytest.mark.skipif(
    not _shm_available(), reason="POSIX shared memory unavailable"
)


class TestArena:
    @needs_shm
    def test_publish_attach_roundtrip_is_bit_identical(self):
        arena = ShmArena()
        original = np.arange(5000, dtype=np.int64) * 3
        try:
            segment = arena.publish("some-key", original)
            assert segment is not None
            attachments, handles = attach_segments((segment,))
            try:
                assert np.array_equal(attachments["some-key"], original)
                with pytest.raises(ValueError):
                    attachments["some-key"][0] = 1  # read-only view
            finally:
                for shm in handles:
                    shm.close()
        finally:
            arena.close()

    @needs_shm
    def test_close_unlinks_every_segment(self):
        arena = ShmArena()
        segment = arena.publish("k", np.arange(100, dtype=np.int64))
        arena.close()
        attachments, handles = attach_segments((segment,))
        assert attachments == {} and handles == []  # gone, not fatal

    def test_missing_segment_degrades_to_local_compile(self):
        from repro.streams.transport import ShmSegment

        attachments, handles = attach_segments(
            (ShmSegment(key="k", shm_name="nonexistent-seg", refs=10),)
        )
        assert attachments == {} and handles == []


class TestSessionTransport:
    def test_store_backed_transport_carries_no_segments(self, tmp_path):
        session = StreamSession(store=StreamStore(tmp_path))
        spec = get_workload("espresso")
        session.precompile(spec, _REFS)
        transport = session.transport()
        assert transport.store_enabled
        assert transport.shm_segments == ()
        assert transport.store_dir == str(tmp_path)

    @needs_shm
    def test_disabled_store_publishes_segments_instead(self, tmp_path):
        session = StreamSession(
            store=StreamStore(tmp_path, enabled=False)
        )
        spec = get_workload("espresso")
        for task in spec.tasks:
            session.stream_for(spec, task).next_chunk(_REFS)
        try:
            transport = session.transport()
            assert not transport.store_enabled
            assert len(transport.shm_segments) == len(spec.tasks)
            # repeated calls don't republish the same keys
            again = session.transport()
            assert len(again.shm_segments) == len(transport.shm_segments)
        finally:
            session.close_transport()


class TestTransportedExecute:
    def test_worker_entry_point_matches_direct_execution(self, tmp_path):
        """The in-worker session path returns the same value the serial
        path computes (exercised in-process; the farm pool tests cover
        real worker processes)."""
        from repro.farm.registry import timed_execute

        params = {"workload": "espresso", "total_refs": _REFS}
        direct, _ = timed_execute("table7.measure", dict(params), 3)
        # prime a store so the worker maps instead of compiling
        session = StreamSession(store=StreamStore(tmp_path))
        spec = get_workload("espresso")
        for task in spec.tasks:
            session.stream_for(spec, task).next_chunk(_REFS)
        assert session.write_back() == len(spec.tasks)
        transport = StreamTransport(store_dir=str(tmp_path))
        transported, _ = transported_execute(
            transport, "table7.measure", dict(params), 3
        )
        assert transported == direct

    def test_worker_session_is_torn_down_after_the_job(self, tmp_path):
        from repro.streams.session import active

        transport = StreamTransport(store_dir=str(tmp_path))
        transported_execute(
            transport,
            "table7.measure",
            {"workload": "espresso", "total_refs": _REFS},
            1,
        )
        assert active() is None


class TestFarmIntegration:
    def test_farm_with_transport_matches_serial_results(self, tmp_path):
        """End to end: a multi-worker farm shipping a store-backed
        transport returns bit-identical trial values."""
        from repro.farm import Farm, FarmConfig, Job

        jobs = [
            Job(
                measure="table7.measure",
                params={"workload": "espresso", "total_refs": _REFS},
                seed=seed,
            )
            for seed in range(3)
        ]
        serial = Farm(
            FarmConfig(max_workers=1, use_cache=False)
        ).run_jobs(jobs)
        with enabled(StreamSession(store=StreamStore(tmp_path))) as session:
            session.precompile(get_workload("espresso"), _REFS)
            farmed = Farm(
                FarmConfig(
                    max_workers=2,
                    use_cache=False,
                    stream_transport=session.transport(),
                )
            ).run_jobs(jobs)
        assert farmed == serial
