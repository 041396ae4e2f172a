"""Cache GC: LRU eviction, pins, crash-safe ordering, sharding."""

from __future__ import annotations

import os
import time

import numpy as np

from repro.farm import CacheGC, Job, JobJournal, journal_pins
from repro.farm.cache import RESULTS_FILE, ResultCache
from repro.farm.gc import shard_dir
from repro.streams.store import StreamStore
from repro.telemetry.registry import MetricsRegistry


def _fill_store(store: StreamStore, n: int, nbytes: int = 512):
    keys = []
    for i in range(n):
        key = f"{i:02x}" + "ab" * 31  # distinct two-hex-char shard prefix
        store.put(key, np.arange(nbytes // 8, dtype=np.int64) + i)
        keys.append(key)
    return keys


def _age(path, seconds):
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


class TestStreamTier:
    def test_lru_eviction_under_budget(self, tmp_path):
        store = StreamStore(tmp_path)
        keys = _fill_store(store, 4)
        # make key 0 the coldest, key 3 the hottest
        for i, key in enumerate(keys):
            _age(tmp_path / f"{key}.npy", (4 - i) * 1000)
        gc = CacheGC(budget_bytes=1200)
        report = gc.collect_stream_tier(tmp_path)
        assert report.evicted >= 2
        assert report.bytes_after <= 1200
        # the hottest entry survived; the coldest died first
        assert (tmp_path / f"{keys[3]}.npy").exists()
        assert not (tmp_path / f"{keys[0]}.npy").exists()

    def test_pinned_keys_are_never_evicted(self, tmp_path):
        store = StreamStore(tmp_path)
        keys = _fill_store(store, 3)
        gc = CacheGC(budget_bytes=0, pins=frozenset(keys[:1]))
        report = gc.collect_stream_tier(tmp_path)
        assert report.pinned_skips == 1
        assert (tmp_path / f"{keys[0]}.npy").exists()
        assert not (tmp_path / f"{keys[1]}.npy").exists()

    def test_eviction_is_sidecar_first_blob_last(self, tmp_path):
        """An orphan blob (no sidecar) is the only legal crash residue,
        and the next pass sweeps it as a clean miss."""
        store = StreamStore(tmp_path)
        (key,) = _fill_store(store, 1)
        # simulate the crash window: sidecar gone, blob still there
        (tmp_path / f"{key}.json").unlink()
        report = CacheGC(None).collect_stream_tier(tmp_path)
        assert report.orphans_swept == 1
        assert not (tmp_path / f"{key}.npy").exists()

    def test_shard_migration_keeps_entries_readable(self, tmp_path):
        store = StreamStore(tmp_path)
        keys = _fill_store(store, 3)
        before = {key: store.get(key).tolist() for key in keys}
        report = CacheGC(None).collect_stream_tier(tmp_path, shard=True)
        assert report.migrated == 3
        for key in keys:
            target = shard_dir(tmp_path, key)
            assert (target / f"{key}.npy").exists()
            assert not (tmp_path / f"{key}.npy").exists()
        # a fresh store reads the sharded layout transparently
        fresh = StreamStore(tmp_path)
        for key in keys:
            value = fresh.get(key)
            assert value is not None and value.tolist() == before[key]

    def test_missing_directory_is_a_noop(self, tmp_path):
        report = CacheGC(10).collect_stream_tier(tmp_path / "nope")
        assert report.scanned == 0 and report.evicted == 0


class TestFarmTier:
    def test_budget_keeps_newest_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            cache.put(f"{i:064x}", float(i), measure="test.double", seed=i)
        size = (tmp_path / RESULTS_FILE).stat().st_size
        gc = CacheGC(budget_bytes=size // 2)
        report = gc.collect_farm_tier(tmp_path)
        assert report.evicted > 0
        assert report.bytes_after <= size // 2
        survivor = ResultCache(tmp_path)
        hit, value = survivor.get(f"{9:064x}")  # newest survives
        assert hit and value == 9.0
        hit, _ = survivor.get(f"{0:064x}")  # oldest evicted
        assert not hit

    def test_pins_survive_even_over_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        pinned_key = f"{0:064x}"
        for i in range(10):
            cache.put(f"{i:064x}", float(i), measure="test.double", seed=i)
        gc = CacheGC(budget_bytes=0, pins=frozenset({pinned_key}))
        report = gc.collect_farm_tier(tmp_path)
        assert report.pinned_skips == 1
        hit, value = ResultCache(tmp_path).get(pinned_key)
        assert hit and value == 0.0

    def test_duplicate_keys_keep_only_the_latest(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = f"{1:064x}"
        cache.put(key, 1.0, measure="test.double", seed=1)
        cache.put(key, 2.0, measure="test.double", seed=1)  # superseding
        size = (tmp_path / RESULTS_FILE).stat().st_size
        CacheGC(budget_bytes=size - 1).collect_farm_tier(tmp_path)
        lines = (tmp_path / RESULTS_FILE).read_text().splitlines()
        assert len(lines) == 1
        hit, value = ResultCache(tmp_path).get(key)
        assert hit and value == 2.0

    def test_non_utf8_line_dies_in_the_rewrite(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(f"{1:064x}", 1.0, measure="test.double", seed=1)
        path = tmp_path / RESULTS_FILE
        good = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b"\xff\n")
        report = CacheGC(budget_bytes=len(good)).collect_farm_tier(tmp_path)
        assert report.scanned == 1 and report.evicted == 0
        assert path.read_bytes() == good
        assert report.bytes_after == len(good)

    def test_under_budget_is_untouched(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(f"{1:064x}", 1.0, measure="test.double", seed=1)
        before = (tmp_path / RESULTS_FILE).read_text()
        report = CacheGC(budget_bytes=10_000_000).collect_farm_tier(tmp_path)
        assert report.evicted == 0
        assert (tmp_path / RESULTS_FILE).read_text() == before


class TestJournalPins:
    def test_live_leases_pin_cache_entries(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs = [Job("test.double", {}, seed=i) for i in range(3)]
        keys = [job.key() for job in jobs]
        journal.queue(zip(jobs, keys), batch="b", client="c")
        epoch = journal.lease(keys[0])
        journal.commit(keys[0], epoch)  # done: no longer pinned
        pins = journal_pins(tmp_path)
        assert pins == frozenset(keys[1:])

    def test_no_journal_means_no_pins(self, tmp_path):
        assert journal_pins(tmp_path) == frozenset()


class TestReporting:
    def test_collect_walks_every_named_tier(self, tmp_path):
        (tmp_path / "farm").mkdir()
        (tmp_path / "stream").mkdir()
        reports = CacheGC(100).collect(
            farm_dir=tmp_path / "farm",
            stream_dir=tmp_path / "stream",
        )
        assert [r.tier for r in reports] == ["farm", "stream"]

    def test_summary_and_publish(self, tmp_path):
        store = StreamStore(tmp_path)
        _fill_store(store, 3)
        gc = CacheGC(budget_bytes=0)
        gc.collect_stream_tier(tmp_path)
        summary = gc.summary()
        assert summary["evicted"] == 3
        assert summary["bytes_freed"] > 0
        registry = MetricsRegistry()
        gc.publish(registry)
        snap = registry.snapshot()
        assert snap["cache.gc.evicted{tier=stream}"] == 3
        assert snap["cache.gc.bytes_freed{tier=stream}"] > 0
