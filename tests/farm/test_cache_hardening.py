"""The result cache under corruption: CRC, quarantine, torn writes."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.atomicio import atomic_append_line
from repro.farm.cache import ResultCache, record_crc
from repro.faults.infra import garble_cache_records


def _seed_cache(directory: Path, n=3) -> ResultCache:
    cache = ResultCache(directory)
    for i in range(n):
        cache.put(f"key-{i}", i * 1.5, measure="test.double", seed=i)
    return cache


class TestCRC:
    def test_put_stamps_a_verifiable_crc(self, tmp_path):
        _seed_cache(tmp_path)
        for line in (tmp_path / "results.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["crc"] == record_crc(record)

    def test_flipped_byte_is_quarantined_not_served(self, tmp_path):
        _seed_cache(tmp_path)
        assert garble_cache_records(tmp_path, indices=(1,)) == 1
        fresh = ResultCache(tmp_path)
        hit0, value0 = fresh.get("key-0")
        hit1, _ = fresh.get("key-1")
        assert hit0 and value0 == 0.0
        assert not hit1  # the damaged record must miss, never lie
        assert fresh.corrupt == 1
        quarantined = (tmp_path / "quarantine.jsonl").read_text()
        assert "key-1" in quarantined

    def test_legacy_records_without_crc_still_load(self, tmp_path):
        record = {"key": "old", "measure": "m", "seed": 0, "value": 42}
        atomic_append_line(
            tmp_path / "results.jsonl", json.dumps(record, sort_keys=True)
        )
        cache = ResultCache(tmp_path)
        assert cache.get("old") == (True, 42)
        assert cache.corrupt == 0


class TestTrailingGarbage:
    def test_truncated_trailing_line_is_skipped_and_counted(self, tmp_path):
        cache = _seed_cache(tmp_path)
        path = tmp_path / "results.jsonl"
        text = path.read_text()
        path.write_text(text + '{"key": "torn", "val')  # no newline, cut
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 3  # the intact records all load
        assert fresh.corrupt == 1
        assert cache.get("key-2") == (True, 3.0)

    def test_binary_garbage_line_is_quarantined(self, tmp_path):
        _seed_cache(tmp_path)
        path = tmp_path / "results.jsonl"
        with open(path, "a") as handle:
            handle.write("\x00\x7f garbage \x01\n")
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 3
        assert fresh.corrupt == 1

    def test_non_utf8_line_is_quarantined_as_raw_bytes(self, tmp_path):
        _seed_cache(tmp_path)
        with open(tmp_path / "results.jsonl", "ab") as handle:
            handle.write(b'{"key": "\xff"}\n')
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 3
        assert fresh.corrupt == 1
        quarantined = (tmp_path / "quarantine.jsonl").read_bytes()
        assert quarantined == b'{"key": "\xff"}\n'

    def test_torn_tail_at_every_length_of_the_last_record(self, tmp_path):
        """A put killed at any byte of its record: the earlier records
        load, the fragment is quarantined once, and the next put starts
        on its own line.  Dropping only the final newline loses
        nothing."""
        _seed_cache(tmp_path / "whole")
        whole = (tmp_path / "whole" / "results.jsonl").read_bytes()
        last = whole.rstrip(b"\n").rsplit(b"\n", 1)[1]
        head = len(whole) - len(last) - 1
        for cut in range(1, len(last) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            (directory / "results.jsonl").write_bytes(whole[: head + cut])
            torn = cut < len(last)
            fresh = ResultCache(directory)
            assert len(fresh) == (2 if torn else 3)
            assert fresh.corrupt == (1 if torn else 0)
            fresh.put("after", 7.0, measure="test.double", seed=9)
            assert fresh.corrupt == (1 if torn else 0)
            reopened = ResultCache(directory)
            assert reopened.get("after") == (True, 7.0)
            assert reopened.get("key-1") == (True, 1.5)
            assert reopened.get("key-2")[0] is not torn
            assert reopened.corrupt == (1 if torn else 0)
        quarantined = (tmp_path / "cut1" / "quarantine.jsonl").read_bytes()
        assert quarantined.startswith(last[:1] + b"\n")

    def test_non_utf8_stats_file_starts_fresh_counters(self, tmp_path):
        cache = _seed_cache(tmp_path)
        (tmp_path / "stats.json").write_bytes(b'{"runs": \xff}')
        cache.record_run({"jobs": 3})
        stats = cache.read_stats()
        assert stats["runs"] == 1 and stats["jobs"] == 3

    def test_stats_file_keeps_only_numeric_known_counters(self, tmp_path):
        cache = _seed_cache(tmp_path)
        path = tmp_path / "stats.json"
        path.write_text("[1]\n")  # valid JSON, not an object
        cache.record_run({"jobs": 3})
        assert cache.read_stats()["runs"] == 1
        path.write_text(
            json.dumps({"runs": "x", "jobs": True, "executed": 4, "extra": 9})
        )
        cache.record_run({"jobs": 3, "executed": 1})
        stats = cache.read_stats()
        assert stats["runs"] == 1 and stats["jobs"] == 3
        assert stats["executed"] == 5
        assert "extra" not in stats

    def test_one_instance_quarantines_a_bad_line_once(self, tmp_path):
        _seed_cache(tmp_path)
        with open(tmp_path / "results.jsonl", "a") as handle:
            handle.write('{"key": "torn", "val')  # no newline, cut
        cache = ResultCache(tmp_path)
        assert len(cache) == 3
        assert len(list(cache.entries())) == 3
        cache.record_run({"jobs": 0})
        assert cache.corrupt == 1
        assert cache.read_stats()["cache_corrupt"] == 1
        quarantine = (tmp_path / "quarantine.jsonl").read_bytes()
        assert len(quarantine.splitlines()) == 1
        # a pinned clear reads its survivors from the same index
        assert cache.clear(pinned={"key-0"}) == 2
        assert cache.corrupt == 1
        assert ResultCache(tmp_path).get("key-0") == (True, 0.0)

    def test_wrong_shape_json_is_quarantined(self, tmp_path):
        _seed_cache(tmp_path)
        path = tmp_path / "results.jsonl"
        with open(path, "a") as handle:
            handle.write('["not", "a", "record"]\n')
            handle.write('{"key": "no-value-field"}\n')
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 3
        assert fresh.corrupt == 2

    def test_corruption_counter_folds_into_stats(self, tmp_path):
        _seed_cache(tmp_path)
        garble_cache_records(tmp_path, indices=(0,))
        fresh = ResultCache(tmp_path)
        len(fresh)  # force the read
        fresh.record_run({"jobs": 0})
        assert fresh.read_stats()["cache_corrupt"] == 1
        # a second run must not double-count the same corruption
        fresh.record_run({"jobs": 0})
        assert fresh.read_stats()["cache_corrupt"] == 1


class TestKillMidWrite:
    def test_killed_writer_never_tears_a_record(self, tmp_path):
        """A writer killed mid-append leaves only whole, verifiable
        records behind — the crash-consistency claim, tested with a
        real SIGKILL rather than a simulated one."""
        script = textwrap.dedent(
            """
            import json, os, sys
            from repro.farm.cache import ResultCache

            cache = ResultCache(sys.argv[1])
            i = 0
            while True:
                cache.put(f"key-{i}", list(range(200)), measure="m", seed=i)
                if i == 0:
                    print("first-write-done", flush=True)
                i += 1
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "first-write-done"
            # let it race through appends, then kill it mid-flight
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=10)

        results = tmp_path / "results.jsonl"
        assert results.exists()
        survivors = ResultCache(tmp_path)
        count = len(survivors)
        assert count >= 1  # the acknowledged first write is durable
        assert survivors.corrupt == 0, "a torn record escaped os.replace"
        for line in results.read_text().splitlines():
            record = json.loads(line)
            assert record["crc"] == record_crc(record)
