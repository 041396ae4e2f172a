"""Size-budgeted shard/GC layer over the two cache tiers.

A service that runs for days accretes two on-disk caches: the farm
result store (``.farm-cache/results.jsonl``) and the compiled-stream
store (``.stream-cache/*.npy`` + sidecars).  Both are content-addressed
by SHA-256-derived keys and append-only, so left alone they only grow.
:class:`CacheGC` brings each tier under a byte budget without ever
breaking the reproducibility contract:

LRU by atime
    The blob tier evicts least-recently-*used* first (``st_atime`` of
    the blob, which every verified ``get`` touches), so the hot working
    set survives.  The ledger tier drops oldest records first (append
    order is recency order for a JSONL store whose latest-per-key
    record wins).

pinning
    Keys named by a live journal lease (queued or leased jobs in the
    write-ahead journal) are never evicted — evicting a result out from
    under an in-flight resume would turn exactly-once replay into
    re-execution mid-recovery.  Skips are counted under
    ``cache.gc.pinned_skips`` so the race is observable, not silent.

crash-consistent deletion ordering
    A stream entry dies sidecar-first, blob-last: the sidecar is the
    commit point, so a crash mid-eviction leaves an *uncommitted* blob
    that reads as a clean miss (and is swept as an orphan by the next
    GC), never a sidecar pointing at a vanished blob.

two-level shard dirs
    With ``shard=True`` the stream tier is migrated from a flat
    directory into ``<key[:2]>/<key[2:4]>/`` shard dirs (256*256
    buckets over the existing hex keys), keeping per-directory entry
    counts bounded however large the store grows.  The store reads
    both layouts, so migration order never makes an entry unreadable.

GC racing a reader is benign by construction: POSIX unlink removes the
name, not the pages — an ``np.load(..., mmap_mode="r")`` mapping taken
before the eviction stays valid, and a lookup after it is a clean miss
that recompiles.  The chaos suite pins this.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.atomicio import atomic_write_bytes, read_jsonl

logger = logging.getLogger(__name__)

#: hex chars per shard level: ``key[:2]/key[2:4]/<key>.npy``
SHARD_GLOB = "[0-9a-f][0-9a-f]"


def shard_dir(root: Path, key: str) -> Path:
    """The two-level shard directory for ``key`` under ``root``."""
    return root / key[:2] / key[2:4]


@dataclass
class TierReport:
    """What one GC pass did to one cache tier."""

    tier: str
    directory: str = ""
    scanned: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted: int = 0
    orphans_swept: int = 0
    pinned_skips: int = 0
    migrated: int = 0

    @property
    def bytes_freed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tier": self.tier,
            "directory": self.directory,
            "scanned": self.scanned,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "bytes_freed": self.bytes_freed,
            "evicted": self.evicted,
            "orphans_swept": self.orphans_swept,
            "pinned_skips": self.pinned_skips,
            "migrated": self.migrated,
        }


@dataclass
class _StreamEntry:
    key: str
    sidecar: Path
    blob: Path
    nbytes: int
    atime: float


class CacheGC:
    """One GC pass over the cache tiers, budgeted per tier."""

    def __init__(
        self,
        budget_bytes: int | None,
        pins: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        #: per-tier byte budget; None means sweep orphans/migrate only
        self.budget_bytes = budget_bytes
        #: keys a live journal lease protects from eviction
        self.pins = frozenset(pins)
        self.reports: list[TierReport] = []

    # -- the stream blob tier

    def _stream_entries(self, directory: Path) -> list[_StreamEntry]:
        entries: dict[str, _StreamEntry] = {}
        sidecars: list[Path] = sorted(directory.glob("*.json"))
        sidecars += sorted(
            directory.glob(f"{SHARD_GLOB}/{SHARD_GLOB}/*.json")
        )
        for sidecar in sidecars:
            key = sidecar.stem
            blob = sidecar.with_suffix(".npy")
            if not blob.exists():
                continue  # uncommitted tail; the orphan sweep ignores
            try:
                stat = blob.stat()
                nbytes = stat.st_size + sidecar.stat().st_size
                entries[key] = _StreamEntry(
                    key=key,
                    sidecar=sidecar,
                    blob=blob,
                    nbytes=nbytes,
                    atime=stat.st_atime,
                )
            except OSError:
                continue
        return sorted(entries.values(), key=lambda e: (e.atime, e.key))

    def _sweep_stream_orphans(
        self, directory: Path, report: TierReport
    ) -> None:
        """Delete blobs with no sidecar: interrupted puts, or the
        blob-last half of an interrupted eviction."""
        blobs: list[Path] = sorted(directory.glob("*.npy"))
        blobs += sorted(directory.glob(f"{SHARD_GLOB}/{SHARD_GLOB}/*.npy"))
        for blob in blobs:
            if blob.with_suffix(".json").exists():
                continue
            try:
                blob.unlink()
                report.orphans_swept += 1
            except OSError:
                pass

    def _migrate_stream_entry(
        self, directory: Path, entry: _StreamEntry, report: TierReport
    ) -> _StreamEntry:
        """Move one flat entry into its shard dir, blob then sidecar."""
        target = shard_dir(directory, entry.key)
        try:
            target.mkdir(parents=True, exist_ok=True)
            new_blob = target / entry.blob.name
            new_sidecar = target / entry.sidecar.name
            os.replace(entry.blob, new_blob)
            os.replace(entry.sidecar, new_sidecar)
        except OSError:
            return entry
        report.migrated += 1
        return _StreamEntry(
            key=entry.key,
            sidecar=new_sidecar,
            blob=new_blob,
            nbytes=entry.nbytes,
            atime=entry.atime,
        )

    def collect_stream_tier(
        self, directory: str | Path, shard: bool = False
    ) -> TierReport:
        """Sweep orphans, optionally shard-migrate, then evict LRU
        until the tier fits the budget (pinned keys excepted)."""
        directory = Path(directory)
        report = TierReport(tier="stream", directory=str(directory))
        self.reports.append(report)
        if not directory.is_dir():
            return report
        self._sweep_stream_orphans(directory, report)
        entries = self._stream_entries(directory)
        if shard:
            entries = [
                self._migrate_stream_entry(directory, e, report)
                if e.sidecar.parent == directory
                else e
                for e in entries
            ]
        report.scanned = len(entries)
        total = sum(e.nbytes for e in entries)
        report.bytes_before = total
        if self.budget_bytes is not None:
            for entry in entries:  # LRU first
                if total <= self.budget_bytes:
                    break
                if entry.key in self.pins:
                    report.pinned_skips += 1
                    continue
                # sidecar first (uncommit), blob last: a crash between
                # the two leaves an orphan blob = a clean miss
                try:
                    entry.sidecar.unlink()
                    entry.blob.unlink()
                except OSError:
                    continue
                total -= entry.nbytes
                report.evicted += 1
        report.bytes_after = total
        return report

    # -- the JSONL ledger tier (farm results)

    def collect_farm_tier(self, directory: str | Path) -> TierReport:
        """Budget the farm result store, honoring journal pins."""
        from repro.farm.cache import RESULTS_FILE

        path = Path(directory) / RESULTS_FILE
        report = TierReport(tier="farm", directory=str(path.parent))
        self.reports.append(report)
        try:
            report.bytes_before = path.stat().st_size
            # (key, line) in append order; torn tails die in the rewrite
            records = [
                (str(line.record.get("key", "")), line.raw)
                for line in read_jsonl(path)
                if line.record is not None
            ]
        except OSError:
            return report
        report.scanned = len(records)
        if (
            self.budget_bytes is None
            or report.bytes_before <= self.budget_bytes
        ):
            report.bytes_after = report.bytes_before
            return report
        # newest-first keep list: later lines supersede earlier ones
        kept: list[tuple[str, bytes]] = []
        seen: set[str] = set()
        budget = self.budget_bytes
        total = 0
        for key, line in reversed(records):
            if key and key in seen:
                continue  # an older duplicate of a kept record
            cost = len(line) + 1
            if key and key in self.pins:
                report.pinned_skips += 1
            elif total + cost > budget:
                report.evicted += 1
                continue
            seen.add(key)
            kept.append((key, line))
            total += cost
        kept.reverse()  # restore append order
        body = b"".join(line + b"\n" for _, line in kept)
        atomic_write_bytes(path, body)
        report.bytes_after = len(body)
        return report

    # -- the all-tiers entry point

    def collect(
        self,
        farm_dir: str | Path | None = None,
        stream_dir: str | Path | None = None,
        shard: bool = False,
    ) -> list[TierReport]:
        """One pass over every named tier; returns the tier reports."""
        if farm_dir is not None:
            self.collect_farm_tier(farm_dir)
        if stream_dir is not None:
            self.collect_stream_tier(stream_dir, shard=shard)
        return self.reports

    def summary(self) -> dict[str, Any]:
        return {
            "budget_bytes": self.budget_bytes,
            "pins": len(self.pins),
            "tiers": [report.to_dict() for report in self.reports],
            "evicted": sum(r.evicted for r in self.reports),
            "pinned_skips": sum(r.pinned_skips for r in self.reports),
            "bytes_freed": sum(r.bytes_freed for r in self.reports),
        }

    def publish(self, metrics) -> None:
        """Copy GC totals under ``cache.gc.*``."""
        for report in self.reports:
            if report.evicted:
                metrics.counter(
                    "cache.gc.evicted", tier=report.tier
                ).inc(report.evicted)
            if report.bytes_freed:
                metrics.counter(
                    "cache.gc.bytes_freed", tier=report.tier
                ).inc(report.bytes_freed)
            if report.pinned_skips:
                metrics.counter("cache.gc.pinned_skips").inc(
                    report.pinned_skips
                )
            if report.migrated:
                metrics.counter("cache.gc.migrated").inc(report.migrated)
            if report.orphans_swept:
                metrics.counter("cache.gc.orphans_swept").inc(
                    report.orphans_swept
                )


def journal_pins(cache_dir: str | Path) -> frozenset[str]:
    """The pin set a journal in ``cache_dir`` imposes (empty if none)."""
    from repro.farm.journal import JobJournal

    journal = JobJournal(cache_dir)
    if not journal.path.exists():
        return frozenset()
    return journal.live_keys()
