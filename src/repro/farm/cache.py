"""On-disk result store, keyed by job fingerprints.

Layout under the cache directory (default ``.farm-cache/``):

``results.jsonl``
    One JSON object per cached result: ``{"key", "measure", "seed",
    "value", "elapsed", "crc"}``.  Append-only; on a duplicate key the
    latest line wins (results are deterministic, so duplicates agree
    anyway).  ``crc`` is a CRC32 over the record's canonical JSON
    (without the ``crc`` field itself); records failing the check — or
    failing to parse at all — are *quarantined*: skipped, copied to
    ``quarantine.jsonl``, counted under :attr:`ResultCache.corrupt`,
    and logged once.  A corrupt cache never crashes a run and never
    serves a damaged value; the job simply recomputes.
``stats.json``
    Cumulative farm counters across runs, maintained by
    :meth:`ResultCache.record_run` and read by ``repro farm stats``.
``quarantine.jsonl``
    Raw corrupt lines, kept for post-mortems.

All writes are crash-consistent (:mod:`repro.atomicio`): a put is one
``O_APPEND`` write and one fsync, O(1) in the log's size, and
``stats.json`` is rewritten whole through a temp file and
``os.replace``.  A scheduler killed mid-put can leave at most one
unterminated last line; the next put seals it, and the loader
quarantines it like any other corrupt line.  Only the scheduler
process reads or writes the store —
workers return results to the master — so no file locking is needed.
Values must be JSON-encodable (floats round-trip exactly through
``json``).
"""

from __future__ import annotations

import json
import logging
import zlib
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.atomicio import (
    RotatingLedger,
    atomic_append_line,
    atomic_write_text,
    read_jsonl,
)
from repro.errors import FarmError

RESULTS_FILE = "results.jsonl"
STATS_FILE = "stats.json"
QUARANTINE_FILE = "quarantine.jsonl"

logger = logging.getLogger(__name__)


def record_crc(record: Mapping[str, Any]) -> str:
    """CRC32 (hex) over a record's canonical JSON, ``crc`` excluded."""
    body = {name: value for name, value in record.items() if name != "crc"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


class ResultCache:
    """Get/put store with hit/miss counters and a disable switch.

    With ``enabled=False`` (the ``--no-cache`` bypass) every lookup
    misses and puts are dropped, but counters still advance so metrics
    stay meaningful.
    """

    def __init__(
        self,
        directory: str | Path = ".farm-cache",
        enabled: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: corrupt records skipped (quarantined) since this instance
        #: first read the store
        self.corrupt = 0
        self._corrupt_recorded = 0
        self._corruption_logged = False
        #: the latest verified record per key, read from the log once
        self._index: dict[str, dict[str, Any]] | None = None
        #: entries a clear/GC left in place because a journal lease
        #: still references them
        self.pinned_skips = 0
        # size-capped quarantine: a corruption storm rotates the file
        # instead of filling the disk (one generation of history kept)
        self._quarantine_ledger = RotatingLedger(self._quarantine_path)

    # -- storage

    @property
    def _results_path(self) -> Path:
        return self.directory / RESULTS_FILE

    @property
    def _stats_path(self) -> Path:
        return self.directory / STATS_FILE

    @property
    def _quarantine_path(self) -> Path:
        return self.directory / QUARANTINE_FILE

    def _quarantine(self, line: bytes, reason: str) -> None:
        self.corrupt += 1
        if not self._corruption_logged:
            self._corruption_logged = True
            logger.warning(
                "farm cache %s holds corrupt record(s) (%s); quarantining "
                "to %s and recomputing — further corruptions this run are "
                "counted silently",
                self._results_path, reason, self._quarantine_path,
            )
        self._quarantine_ledger.append(line)

    def _read_records(self) -> Iterator[dict[str, Any]]:
        """Yield verified records; corrupt lines are quarantined."""
        for line in read_jsonl(self._results_path):
            record = line.record
            if record is None:
                # a torn or truncated trailing line, or garbage bytes
                self._quarantine(line.raw, line.problem)
            elif "key" not in record or "value" not in record:
                self._quarantine(line.raw, "missing key/value fields")
            elif "crc" in record and record["crc"] != record_crc(record):
                self._quarantine(line.raw, "CRC mismatch")
            else:
                # pre-CRC records (no "crc" field) are accepted as-is
                yield record

    def _load(self) -> dict[str, dict[str, Any]]:
        if self._index is None:
            self._index = {}
            for record in self._read_records():
                self._index[record["key"]] = record
        return self._index

    # -- the get/put surface

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``."""
        if self.enabled and key in self._load():
            self.hits += 1
            return True, self._load()[key]["value"]
        self.misses += 1
        return False, None

    def put(
        self,
        key: str,
        value: Any,
        *,
        measure: str = "",
        seed: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        record = {
            "key": key,
            "measure": measure,
            "seed": seed,
            "value": value,
            "elapsed": round(elapsed, 6),
        }
        record["crc"] = record_crc(record)
        atomic_append_line(
            self._results_path, json.dumps(record, sort_keys=True)
        )
        self._load()[key] = record

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return self.enabled and key in self._load()

    def entries(self) -> Iterator[dict[str, Any]]:
        """Yield the stored verified records (latest per key)."""
        yield from self._load().values()

    def _contained(self, path: Path) -> bool:
        """Whether ``path`` resolves to inside the cache directory."""
        root = self.directory.resolve()
        try:
            path.resolve().relative_to(root)
        except ValueError:
            return False
        return True

    def clear(self, pinned: frozenset[str] | set[str] = frozenset()) -> int:
        """Drop every stored result; returns how many were dropped.

        Refuses (raising :class:`FarmError`) to unlink anything that
        does not resolve to inside the cache directory — a symlink
        planted at ``results.jsonl`` cannot steer the delete at an
        unrelated file, and a mis-set ``--dir`` cannot silently eat one.

        Entries named in ``pinned`` — keys a live journal lease still
        references — survive the clear (counted in
        :attr:`pinned_skips`): deleting a result out from under an
        in-flight resume would turn exactly-once replay into silent
        re-execution.
        """
        count = len(self._load())
        victims = [
            self._results_path, self._stats_path, self._quarantine_path
        ]
        for path in victims:
            if path.exists() and (
                path.is_symlink() or not self._contained(path)
            ):
                raise FarmError(
                    f"refusing to clear {path}: it escapes the farm cache "
                    f"directory {self.directory}"
                )
        survivors = []
        if pinned:
            survivors = [
                record
                for record in self.entries()
                if record["key"] in pinned
            ]
            self.pinned_skips += len(survivors)
        for path in victims:
            if path.exists():
                path.unlink()
        self._index = {}
        if survivors:
            lines = [
                json.dumps(record, sort_keys=True) for record in survivors
            ]
            atomic_write_text(self._results_path, "\n".join(lines) + "\n")
            for record in survivors:
                self._index[record["key"]] = record
        return count - len(survivors)

    # -- cumulative run statistics (the ``repro farm stats`` view)

    def read_stats(self) -> dict[str, Any]:
        stats = {
            "runs": 0,
            "jobs": 0,
            "cache_hits": 0,
            "executed": 0,
            "retries": 0,
            "cache_corrupt": 0,
            "wall_clock_secs": 0.0,
        }
        if self._stats_path.exists():
            try:
                stored = json.loads(self._stats_path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError):
                stored = None
            if isinstance(stored, dict):
                # only the known counters, and only numbers (not bools):
                # the rest is ignored, as unparseable JSON is
                stats.update(
                    (name, value)
                    for name, value in stored.items()
                    if name in stats and type(value) in (int, float)
                )
        return stats

    def record_run(self, summary: Mapping[str, Any]) -> None:
        """Fold one farm run's summary into the cumulative counters."""
        if not self.enabled:
            return
        stats = self.read_stats()
        stats["runs"] += 1
        stats["jobs"] += summary.get("jobs", 0)
        stats["cache_hits"] += summary.get("cache_hits", 0)
        stats["executed"] += summary.get("executed", 0)
        stats["retries"] += summary.get("retries", 0)
        stats["cache_corrupt"] += self.corrupt - self._corrupt_recorded
        self._corrupt_recorded = self.corrupt
        stats["wall_clock_secs"] = round(
            stats["wall_clock_secs"] + summary.get("wall_clock_secs", 0.0), 6
        )
        atomic_write_text(
            self._stats_path, json.dumps(stats, indent=2) + "\n"
        )
