"""The crash-consistent JSONL log: O(1) appends, one reader, ledgers."""

import json
import os
import stat

from repro.atomicio import (
    LogLine,
    RotatingLedger,
    atomic_append_line,
    atomic_append_lines,
    read_jsonl,
)


class TestAppend:
    def test_append_keeps_the_inode_and_grows_by_the_new_bytes(
        self, tmp_path, monkeypatch
    ):
        """An append writes only its own lines into the same file: no
        rewrite, no rename, one fsync per call."""
        path = tmp_path / "log.jsonl"
        atomic_append_lines(path, [json.dumps({"i": i}) for i in range(1000)])
        before = path.stat()
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        atomic_append_line(path, json.dumps({"i": 1000}))
        atomic_append_lines(path, [json.dumps({"i": 1001}), b'{"i": 1002}'])
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_size - before.st_size == len(
            b'{"i": 1000}\n{"i": 1001}\n{"i": 1002}\n'
        )
        assert len(fsyncs) == 2
        assert stat.S_IMODE(after.st_mode) == 0o600
        assert [line.record["i"] for line in read_jsonl(path)] == list(
            range(1003)
        )

    def test_empty_batch_writes_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        atomic_append_lines(path, [])
        assert not path.exists()

    def test_torn_tail_is_sealed_before_the_next_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": ')
        atomic_append_lines(path, ['{"c": 3}', '{"d": 4}'])
        assert path.read_bytes() == b'{"a": 1}\n{"b": \n{"c": 3}\n{"d": 4}\n'


class TestReader:
    def test_every_line_comes_back_with_its_bytes_and_verdict(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"a": 1}\n\n  \xff\xfe\n{"torn": \n[1, 2]\n'
            + b"[" * 100_000
            + b'\r\n{"b": 2}'
        )
        assert list(read_jsonl(path)) == [
            LogLine(b'{"a": 1}', {"a": 1}),
            LogLine(b"\xff\xfe", None, "not UTF-8"),
            LogLine(b'{"torn":', None, "not valid JSON"),
            LogLine(b"[1, 2]", None, "not a JSON object"),
            LogLine(b"[" * 100_000, None, "not valid JSON"),
            LogLine(b'{"b": 2}', {"b": 2}),
        ]

    def test_missing_log_is_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "nope.jsonl")) == []


class TestRotatingLedger:
    def test_budget_counts_bytes_not_characters(self, tmp_path):
        ledger = RotatingLedger(tmp_path / "q.jsonl", max_bytes=12)
        ledger.append("é" * 4)  # 9 bytes with its newline
        ledger.append("éé")  # 5 more would burst 12: rotate first
        assert ledger.rotations == 1
        assert (tmp_path / "q.jsonl").read_bytes() == "éé\n".encode()
        assert ledger.rotated_path.read_bytes() == ("é" * 4 + "\n").encode()
