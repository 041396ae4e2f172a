"""The write-ahead job journal: crash-recoverable batch state.

A batch that matters is *journaled before it runs*.  Every job passes
through the state machine::

    queued ──> leased ──> done
                  │  └──> failed
                  └─────> poisoned

Each transition is one CRC-guarded JSONL record appended crash-
consistently (``repro.atomicio``) to ``journal.jsonl`` in the farm
cache directory: one ``O_APPEND`` write and one fsync per append, O(1)
in the journal's size.  An append that returned is durable.  A master
SIGKILLed inside a write can leave at most one unterminated last line;
the next append seals it, and replay quarantines and counts it — a torn
line is never applied.  On restart, :meth:`JobJournal.incomplete`
names exactly the jobs whose value was never durably committed, and
carries enough of each job (measure, params, seed) to rebuild and
re-run it.

Lease epochs and fencing
------------------------

Every lease increments the job's *epoch*.  A commit must present the
epoch it was leased under; a commit carrying a stale epoch is refused
with :class:`StaleLeaseError` and counted, never applied.  This is the
fencing token pattern: if a job times out, is re-leased to a second
worker, and the first (presumed-dead) worker's result then surfaces, it
cannot double-commit — exactly one lease per epoch can retire a job.

Exactly-once contract
---------------------

The commit ordering is: execute, then write the result cache record,
then journal ``done``.  A crash between cache write and ``done`` leaves
a leased job whose value *is* in the cache — resume reconciles it (the
``reconcile`` op) without re-executing.  A crash before the cache write
re-executes the job, which is observationally identical because every
job is deterministic in its seed.  Hence journal replay composed with
cache reconciliation is the identity on batch results.

The journal is owned by one master process at a time; it is not a
multi-writer lock file.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.atomicio import (
    RotatingLedger,
    atomic_append_lines,
    atomic_write_text,
    read_jsonl,
)
from repro.errors import FarmError
from repro.farm.cache import record_crc

JOURNAL_FILE = "journal.jsonl"
JOURNAL_QUARANTINE_FILE = "journal.quarantine.jsonl"

#: journal record schema version
JOURNAL_VERSION = 1

#: job states, in lifecycle order
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
POISONED = "poisoned"

#: states with a live claim on cache entries (GC/clear must not evict)
LIVE_STATES = frozenset({QUEUED, LEASED})
#: states a resume must pick up and drive to completion
INCOMPLETE_STATES = frozenset({QUEUED, LEASED})
#: states that never run again without an explicit requeue
TERMINAL_STATES = frozenset({DONE, FAILED, POISONED})

logger = logging.getLogger(__name__)


class StaleLeaseError(FarmError):
    """A commit presented an epoch older than the job's current lease.

    The fencing failure mode: a resurrected worker trying to retire a
    job that has since been re-leased.  The commit is refused; the
    caller's value must be discarded.
    """


@dataclass
class JournalEntry:
    """The reconstructed latest state of one journaled job."""

    key: str
    state: str = QUEUED
    measure: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    batch: str = ""
    client: str = ""
    epoch: int = 0
    reason: dict[str, Any] = field(default_factory=dict)
    #: whether the stored params survive a JSON round trip (replayable)
    replayable: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "state": self.state,
            "measure": self.measure,
            "seed": self.seed,
            "batch": self.batch,
            "client": self.client,
            "epoch": self.epoch,
            "reason": self.reason,
            "replayable": self.replayable,
        }


def _encode_params(params: Mapping[str, Any]) -> tuple[dict[str, Any], bool]:
    """Params as stored in the journal, plus whether they round-trip.

    Farmed experiment params are plain JSON scalars today; anything
    fancier is stored best-effort (``repr``) and marked non-replayable —
    resume can still reconcile such a job from the cache, it just cannot
    re-execute it.
    """
    try:
        encoded = json.loads(json.dumps(dict(params)))
        return encoded, True
    except (TypeError, ValueError):
        return {name: repr(value) for name, value in params.items()}, False


class JobJournal:
    """Append-only journal over one farm cache directory."""

    def __init__(
        self,
        directory: str | Path,
        enabled: bool = True,
        quarantine_budget_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        #: commits refused by lease fencing since this instance loaded
        self.fenced_commits = 0
        #: corrupt journal lines quarantined since this instance loaded
        self.corrupt = 0
        self._corruption_logged = False
        self._entries: dict[str, JournalEntry] | None = None
        quarantine = self.directory / JOURNAL_QUARANTINE_FILE
        self._quarantine = (
            RotatingLedger(quarantine, quarantine_budget_bytes)
            if quarantine_budget_bytes is not None
            else RotatingLedger(quarantine)
        )

    # -- storage

    @property
    def path(self) -> Path:
        return self.directory / JOURNAL_FILE

    def _quarantine_line(self, line: bytes, reason: str) -> None:
        self.corrupt += 1
        if not self._corruption_logged:
            self._corruption_logged = True
            logger.warning(
                "job journal %s holds corrupt record(s) (%s); quarantining "
                "to %s — further corruptions this run are counted silently",
                self.path, reason, self._quarantine.path,
            )
        self._quarantine.append(line)

    def _read_ops(self) -> Iterator[dict[str, Any]]:
        """Yield verified journal operations in append order."""
        for line in read_jsonl(self.path):
            record = line.record
            if record is None:
                self._quarantine_line(line.raw, line.problem)
            elif "op" not in record or "key" not in record:
                self._quarantine_line(line.raw, "missing op/key fields")
            elif record.get("crc") != record_crc(record):
                self._quarantine_line(line.raw, "CRC mismatch")
            else:
                yield record

    def _replay(self) -> dict[str, JournalEntry]:
        """Fold the op log into the latest per-job state."""
        entries: dict[str, JournalEntry] = {}
        for record in self._read_ops():
            op = record["op"]
            key = record["key"]
            if op == "queue":
                entry = entries.get(key) or JournalEntry(key=key)
                entry.state = QUEUED
                entry.measure = str(record.get("measure", entry.measure))
                entry.seed = int(record.get("seed", entry.seed))
                entry.batch = str(record.get("batch", entry.batch))
                entry.client = str(record.get("client", entry.client))
                entry.reason = {}
                params = record.get("params")
                if isinstance(params, dict):
                    entry.params = params
                entry.replayable = bool(record.get("replayable", True))
                entries[key] = entry
                continue
            entry = entries.get(key)
            if entry is None:
                # a transition without its queue record (pre-compaction
                # tail or cross-directory copy): synthesize a shell so
                # state still resolves
                entry = JournalEntry(key=key, replayable=False)
                entries[key] = entry
            if op == "lease":
                entry.state = LEASED
                entry.epoch = int(record.get("epoch", entry.epoch + 1))
            elif op in (DONE, "reconcile"):
                entry.state = DONE
            elif op == "fail":
                entry.state = FAILED
                reason = record.get("reason")
                entry.reason = reason if isinstance(reason, dict) else {}
            elif op == "poison":
                entry.state = POISONED
                reason = record.get("reason")
                entry.reason = reason if isinstance(reason, dict) else {}
            elif op == "requeue":
                entry.state = QUEUED
                entry.reason = {}
        return entries

    def _load(self) -> dict[str, JournalEntry]:
        if self._entries is None:
            self._entries = self._replay()
        return self._entries

    def _append(self, records: list[dict[str, Any]]) -> None:
        if not self.enabled:
            return
        lines = []
        for record in records:
            record.setdefault("v", JOURNAL_VERSION)
            record.setdefault("ts", round(time.time(), 3))
            record["crc"] = record_crc(record)
            lines.append(json.dumps(record, sort_keys=True))
        atomic_append_lines(self.path, lines)

    # -- the write-ahead surface

    def queue(
        self,
        jobs_with_keys: Iterable[tuple[Any, str]],
        batch: str = "",
        client: str = "",
    ) -> None:
        """Journal a batch *before* any job runs (one atomic append)."""
        records = []
        entries = self._load()
        for job, key in jobs_with_keys:
            current = entries.get(key)
            if current is not None and current.state in LIVE_STATES:
                continue  # already journaled and incomplete: keep its epoch
            params, replayable = _encode_params(job.params)
            records.append(
                {
                    "op": "queue",
                    "key": key,
                    "measure": job.measure,
                    "params": params,
                    "seed": job.seed,
                    "batch": batch,
                    "client": client,
                    "replayable": replayable,
                }
            )
            entries[key] = JournalEntry(
                key=key,
                state=QUEUED,
                measure=job.measure,
                params=params,
                seed=job.seed,
                batch=batch,
                client=client,
                epoch=current.epoch if current is not None else 0,
                replayable=replayable,
            )
        self._append(records)

    def lease(self, key: str) -> int:
        """Claim a job for execution; returns the fencing epoch."""
        entry = self._require(key)
        entry.epoch += 1
        entry.state = LEASED
        self._append([{"op": "lease", "key": key, "epoch": entry.epoch}])
        return entry.epoch

    def commit(self, key: str, epoch: int) -> None:
        """Retire a leased job as done; refused under a stale epoch."""
        entry = self._require(key)
        if epoch != entry.epoch:
            self.fenced_commits += 1
            raise StaleLeaseError(
                f"commit for job {key[:12]} fenced: presented epoch {epoch}, "
                f"current lease epoch is {entry.epoch}"
            )
        entry.state = DONE
        self._append([{"op": "done", "key": key, "epoch": epoch}])

    def reconcile(self, key: str) -> None:
        """Retire a job whose value was found already durable in the
        result cache (a cache hit, or a resume after a crash that landed
        between cache write and ``done``)."""
        entry = self._require(key)
        entry.state = DONE
        self._append([{"op": "reconcile", "key": key, "epoch": entry.epoch}])

    def fail(self, key: str, epoch: int, reason: Mapping[str, Any]) -> None:
        entry = self._require(key)
        entry.state = FAILED
        entry.reason = dict(reason)
        self._append(
            [{"op": "fail", "key": key, "epoch": epoch, "reason": dict(reason)}]
        )

    def poison(self, key: str, epoch: int, reason: Mapping[str, Any]) -> None:
        """Quarantine a job that keeps destroying its workers."""
        entry = self._require(key)
        entry.state = POISONED
        entry.reason = dict(reason)
        self._append(
            [
                {
                    "op": "poison",
                    "key": key,
                    "epoch": epoch,
                    "reason": dict(reason),
                }
            ]
        )

    def requeue(self, key: str) -> None:
        """Put a failed/poisoned job back in play (``repro jobs retry``)."""
        entry = self._require(key)
        if entry.state in LIVE_STATES:
            return
        entry.state = QUEUED
        entry.reason = {}
        self._append([{"op": "requeue", "key": key}])

    def _require(self, key: str) -> JournalEntry:
        entry = self._load().get(key)
        if entry is None:
            raise FarmError(
                f"job {key[:12]} was never journaled; queue it first"
            )
        return entry

    # -- the recovery / inspection surface

    def entries(self) -> list[JournalEntry]:
        """Latest state of every journaled job, stable order."""
        return sorted(
            self._load().values(), key=lambda e: (e.batch, e.seed, e.key)
        )

    def get(self, key: str) -> JournalEntry | None:
        return self._load().get(key)

    def incomplete(self) -> list[JournalEntry]:
        """Jobs a resume must drive to completion (queued or leased)."""
        return [e for e in self.entries() if e.state in INCOMPLETE_STATES]

    def poisoned(self) -> list[JournalEntry]:
        return [e for e in self.entries() if e.state == POISONED]

    def live_keys(self) -> frozenset[str]:
        """Keys with a live claim on cache entries — the GC pin set."""
        return frozenset(
            e.key for e in self._load().values() if e.state in LIVE_STATES
        )

    def counts(self) -> dict[str, int]:
        counts = {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0, POISONED: 0}
        for entry in self._load().values():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def compact(self) -> int:
        """Drop retired (``done``) jobs; returns how many were dropped.

        Failed and poisoned jobs survive compaction — they are the
        operator's worklist (``repro jobs list|retry``).  The rewrite is
        atomic, so a crash mid-compaction loses nothing.
        """
        entries = self._load()
        keep = {
            key: entry
            for key, entry in entries.items()
            if entry.state != DONE
        }
        dropped = len(entries) - len(keep)
        if dropped == 0:
            return 0
        lines = []
        for entry in sorted(keep.values(), key=lambda e: (e.batch, e.seed, e.key)):
            record: dict[str, Any] = {
                "op": "queue",
                "key": entry.key,
                "measure": entry.measure,
                "params": entry.params,
                "seed": entry.seed,
                "batch": entry.batch,
                "client": entry.client,
                "replayable": entry.replayable,
                "v": JOURNAL_VERSION,
                "ts": round(time.time(), 3),
            }
            record["crc"] = record_crc(record)
            lines.append(json.dumps(record, sort_keys=True))
            if entry.state != QUEUED:
                tail: dict[str, Any] = {
                    "op": {
                        LEASED: "lease",
                        FAILED: "fail",
                        POISONED: "poison",
                    }[entry.state],
                    "key": entry.key,
                    "epoch": entry.epoch,
                    "v": JOURNAL_VERSION,
                    "ts": round(time.time(), 3),
                }
                if entry.reason:
                    tail["reason"] = entry.reason
                tail["crc"] = record_crc(tail)
                lines.append(json.dumps(tail, sort_keys=True))
        if lines:
            atomic_write_text(self.path, "\n".join(lines) + "\n")
        elif self.path.exists():
            self.path.unlink()
        self._entries = keep
        return dropped

    def clear(self) -> int:
        """Drop the whole journal (every state); returns entry count."""
        count = len(self._load())
        if self.path.exists():
            self.path.unlink()
        self._entries = {}
        return count

    def tally(self) -> tuple[int, int]:
        """Fenced commits and corrupt lines so far: the baseline a later
        :meth:`publish` counts increments from."""
        return self.fenced_commits, self.corrupt

    def publish(self, metrics, since: tuple[int, int] = (0, 0)) -> None:
        """Snapshot journal health under ``farm.service.journal.*``, and
        count the fenced commits and corrupt lines seen after the
        :meth:`tally` ``since`` (the default counts them all)."""
        for state, count in self.counts().items():
            metrics.gauge(f"farm.service.journal.{state}").set(count)
        fenced = self.fenced_commits - since[0]
        if fenced:
            metrics.counter("farm.service.fenced_commits").inc(fenced)
        corrupt = self.corrupt - since[1]
        if corrupt:
            metrics.counter("farm.service.journal.corrupt").inc(corrupt)
