"""The write-ahead job journal: states, fencing, corruption, compaction."""

from __future__ import annotations

import json

import pytest

from repro.errors import FarmError
from repro.farm import Job, JobJournal, StaleLeaseError
from repro.farm.journal import (
    DONE,
    FAILED,
    JOURNAL_FILE,
    JOURNAL_QUARANTINE_FILE,
    LEASED,
    POISONED,
    QUEUED,
)
from repro.telemetry.registry import MetricsRegistry


def _queue(journal: JobJournal, n: int = 3, batch: str = "b", client: str = "c"):
    jobs = [Job("test.double", {}, seed=i) for i in range(n)]
    keys = [job.key() for job in jobs]
    journal.queue(zip(jobs, keys), batch=batch, client=client)
    return jobs, keys


class TestLifecycle:
    def test_queue_lease_commit_walk_the_states(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal)
        assert journal.counts()[QUEUED] == 3

        epoch = journal.lease(keys[0])
        assert journal.get(keys[0]).state == LEASED
        journal.commit(keys[0], epoch)
        assert journal.get(keys[0]).state == DONE
        assert journal.counts() == {
            QUEUED: 2, LEASED: 0, DONE: 1, FAILED: 0, POISONED: 0,
        }

    def test_requeue_of_live_entries_is_a_noop(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs, keys = _queue(journal)
        journal.queue(zip(jobs, keys), batch="again", client="c")
        # still one entry per job, original batch label
        assert len(journal.entries()) == 3
        assert all(e.batch == "b" for e in journal.entries())

    def test_reconcile_marks_done_without_a_lease(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        journal.reconcile(keys[0])
        assert journal.get(keys[0]).state == DONE

    def test_fail_and_requeue_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        epoch = journal.lease(keys[0])
        journal.fail(keys[0], epoch, {"code": "execute_error"})
        entry = journal.get(keys[0])
        assert entry.state == FAILED
        assert entry.reason["code"] == "execute_error"
        journal.requeue(keys[0])
        assert journal.get(keys[0]).state == QUEUED
        assert journal.get(keys[0]).reason == {}

    def test_poison_records_a_machine_readable_reason(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        epoch = journal.lease(keys[0])
        reason = {"code": "poisoned", "workers_killed": 2}
        journal.poison(keys[0], epoch, reason)
        entry = journal.get(keys[0])
        assert entry.state == POISONED
        assert entry.reason == reason
        assert journal.poisoned() == [entry]

    def test_unknown_key_raises(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(FarmError, match="never journaled"):
            journal.lease("0" * 64)


class TestFencing:
    def test_stale_epoch_cannot_commit(self, tmp_path):
        """A resurrected worker holding an old lease must be fenced."""
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        old = journal.lease(keys[0])
        fresh = journal.lease(keys[0])  # master re-leased after a crash
        assert fresh > old
        with pytest.raises(StaleLeaseError):
            journal.commit(keys[0], old)
        assert journal.get(keys[0]).state == LEASED
        assert journal.fenced_commits == 1
        journal.commit(keys[0], fresh)
        assert journal.get(keys[0]).state == DONE

    def test_fenced_commits_published(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        old = journal.lease(keys[0])
        journal.lease(keys[0])
        with pytest.raises(StaleLeaseError):
            journal.commit(keys[0], old)
        registry = MetricsRegistry()
        journal.publish(registry)
        snap = registry.snapshot()
        assert snap["farm.service.fenced_commits"] == 1
        assert snap["farm.service.journal.leased"] == 1


class TestRecoverySurface:
    def test_incomplete_lists_queued_and_leased(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal)
        epoch = journal.lease(keys[0])
        journal.commit(keys[0], epoch)
        journal.lease(keys[1])
        incomplete = journal.incomplete()
        assert {e.key for e in incomplete} == {keys[1], keys[2]}
        assert journal.live_keys() == frozenset({keys[1], keys[2]})

    def test_replay_survives_process_restart(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal)
        epoch = journal.lease(keys[0])
        journal.commit(keys[0], epoch)
        reborn = JobJournal(tmp_path)
        assert reborn.get(keys[0]).state == DONE
        assert {e.key for e in reborn.incomplete()} == set(keys[1:])

    def test_entry_round_trips_params_and_seed(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = Job("test.counted", {"counter_file": "/tmp/x"}, seed=7)
        journal.queue([(job, job.key())], batch="b", client="c")
        entry = JobJournal(tmp_path).get(job.key())
        assert entry.measure == "test.counted"
        assert entry.params == {"counter_file": "/tmp/x"}
        assert entry.seed == 7
        assert entry.replayable


class TestCorruption:
    def test_corrupt_line_is_quarantined_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal)
        path = tmp_path / JOURNAL_FILE
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "0000000000"  # break the CRC
        path.write_text("\n".join(lines) + "\n")

        reborn = JobJournal(tmp_path)
        entries = reborn.entries()
        assert len(entries) == 2  # the torn record is gone, not fatal
        assert reborn.corrupt == 1
        assert (tmp_path / JOURNAL_QUARANTINE_FILE).exists()

    def test_non_json_garbage_is_quarantined(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal, n=1)
        path = tmp_path / JOURNAL_FILE
        path.write_text(path.read_text() + "{not json\n")
        reborn = JobJournal(tmp_path)
        assert len(reborn.entries()) == 1
        assert reborn.corrupt == 1

    def test_non_utf8_line_is_quarantined_as_raw_bytes(self, tmp_path):
        journal = JobJournal(tmp_path)
        _queue(journal, n=2)
        with open(tmp_path / JOURNAL_FILE, "ab") as handle:
            handle.write(b"\xff\n")
        reborn = JobJournal(tmp_path)
        assert reborn.counts()[QUEUED] == 2
        assert reborn.corrupt == 1
        quarantine = tmp_path / JOURNAL_QUARANTINE_FILE
        assert quarantine.read_bytes() == b"\xff\n"

    def test_torn_tail_at_every_length_of_the_last_record(self, tmp_path):
        """An append killed at any byte of its record: the earlier ops
        replay, the fragment is quarantined once, and the next append
        starts on its own line.  Dropping only the final newline loses
        nothing."""
        journal = JobJournal(tmp_path / "whole")
        _, keys = _queue(journal, n=2)
        journal.lease(keys[1])
        whole = (tmp_path / "whole" / JOURNAL_FILE).read_bytes()
        last = whole.rstrip(b"\n").rsplit(b"\n", 1)[1]
        head = len(whole) - len(last) - 1
        for cut in range(1, len(last) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            (directory / JOURNAL_FILE).write_bytes(whole[: head + cut])
            torn = cut < len(last)
            reborn = JobJournal(directory)
            assert reborn.get(keys[1]).state == (QUEUED if torn else LEASED)
            assert reborn.corrupt == (1 if torn else 0)
            reborn.lease(keys[0])
            assert reborn.corrupt == (1 if torn else 0)
            again = JobJournal(directory)
            assert again.get(keys[0]).state == LEASED
            assert again.get(keys[1]).state == (QUEUED if torn else LEASED)
            assert again.corrupt == (1 if torn else 0)
        quarantine = tmp_path / "cut1" / JOURNAL_QUARANTINE_FILE
        assert quarantine.read_bytes().startswith(last[:1] + b"\n")


class TestCompaction:
    def test_compact_drops_done_keeps_the_worklist(self, tmp_path):
        journal = JobJournal(tmp_path)
        _, keys = _queue(journal)
        epoch = journal.lease(keys[0])
        journal.commit(keys[0], epoch)
        epoch = journal.lease(keys[1])
        journal.poison(keys[1], epoch, {"code": "poisoned"})
        assert journal.compact() == 1
        states = {e.key: e.state for e in JobJournal(tmp_path).entries()}
        assert states == {keys[1]: POISONED, keys[2]: QUEUED}

    def test_clear_empties_the_journal(self, tmp_path):
        journal = JobJournal(tmp_path)
        _queue(journal)
        journal.clear()
        assert JobJournal(tmp_path).entries() == []

    def test_journal_file_is_crc_checked_jsonl(self, tmp_path):
        journal = JobJournal(tmp_path)
        _queue(journal, n=1)
        for line in (tmp_path / JOURNAL_FILE).read_text().splitlines():
            record = json.loads(line)
            assert "crc" in record and "op" in record
