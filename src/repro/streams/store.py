"""The on-disk compiled-stream store: ``.npy`` blobs, memory-mapped.

Layout under the store directory (default ``.stream-cache/``):

``<key>.npy``
    One compiled reference stream — a 1-D ``int64`` array of virtual
    addresses — written crash-consistently (temp file + fsync +
    ``os.replace`` via :mod:`repro.atomicio`).
``<key>.json``
    The blob's sidecar: the generating descriptor, the reference count,
    the blob's byte size and a CRC32 of its contents.  The sidecar is
    the *commit point*: it is written only after the blob, so a blob
    without a sidecar is simply a miss (an interrupted write), never a
    half-trusted artifact.
``quarantine/``
    Blobs (and their sidecars) that failed verification — wrong size,
    CRC mismatch, unreadable header — moved aside for post-mortems,
    mirroring the farm result cache's quarantine discipline.

Reads are ``np.load(..., mmap_mode="r")``: the kernel pages the blob in
on demand and shares the pages across every process mapping the same
file, which is what makes farm fan-out zero-copy.  Blobs are verified
(size + CRC) at most once per key per process — on first open — and the
mapping is memoized, so steady-state lookups are a dict hit.
"""

from __future__ import annotations

import io
import json
import logging
import zlib
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.atomicio import atomic_write_bytes, atomic_write_text
from repro.errors import StreamStoreError
from repro.telemetry.profile import phase

DEFAULT_STORE_DIR = ".stream-cache"
QUARANTINE_DIR = "quarantine"

logger = logging.getLogger(__name__)


def blob_crc(data: bytes) -> str:
    """CRC32 (hex) over a blob's raw bytes."""
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


class StreamStore:
    """Content-addressed get/put store for compiled streams.

    With ``enabled=False`` (the ``--no-stream-cache`` bypass) every
    lookup misses and puts are dropped, but counters still advance so
    the ``streams.*`` metrics stay meaningful.
    """

    def __init__(
        self,
        directory: str | Path = DEFAULT_STORE_DIR,
        enabled: bool = True,
        sharded: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        #: write new blobs into two-level shard dirs (``ab/cd/<key>``)
        #: instead of the flat directory; reads always check both
        #: layouts, so flipping this (or a GC migration) never hides
        #: an existing entry
        self.sharded = sharded
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.bytes_mapped = 0
        self.bytes_written = 0
        #: entries a clear left in place under a live journal pin
        self.pinned_skips = 0
        self._mapped: dict[str, np.ndarray] = {}
        self._corruption_logged = False

    # -- paths

    def _shard_dir(self, key: str) -> Path:
        return self.directory / key[:2] / key[2:4]

    def _entry_path(self, key: str, suffix: str) -> Path:
        """Where ``key``'s blob/sidecar lives: whichever of the flat
        and sharded locations exists, else the layout ``put`` targets."""
        flat = self.directory / f"{key}{suffix}"
        if flat.exists():
            return flat
        sharded = self._shard_dir(key) / f"{key}{suffix}"
        if sharded.exists():
            return sharded
        return sharded if self.sharded else flat

    def _blob_path(self, key: str) -> Path:
        return self._entry_path(key, ".npy")

    def _sidecar_path(self, key: str) -> Path:
        return self._entry_path(key, ".json")

    @property
    def _quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    # -- corruption handling

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a damaged blob + sidecar aside and count the casualty."""
        self.corrupt += 1
        if not self._corruption_logged:
            self._corruption_logged = True
            logger.warning(
                "stream store %s holds corrupt blob(s) (%s); moving to %s "
                "and recompiling — further corruptions this run are counted "
                "silently",
                self.directory, reason, self._quarantine_dir,
            )
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            for path in (self._blob_path(key), self._sidecar_path(key)):
                if path.exists():
                    path.replace(self._quarantine_dir / path.name)
        except OSError:
            pass  # quarantine is best-effort; the miss is what matters

    # -- the get/put surface

    def get(self, key: str) -> np.ndarray | None:
        """The memory-mapped blob for ``key``, or None on a miss.

        The first open of each key verifies the sidecar's size and CRC
        against the blob; damaged entries are quarantined and reported
        as misses so the caller recompiles.
        """
        if not self.enabled:
            self.misses += 1
            return None
        cached = self._mapped.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        with phase("streams.blob_map"):
            blob_path = self._blob_path(key)
            sidecar_path = self._sidecar_path(key)
            if not sidecar_path.exists() or not blob_path.exists():
                self.misses += 1
                return None
            try:
                sidecar = json.loads(sidecar_path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                sidecar = None
            if not isinstance(sidecar, dict):
                self._quarantine(key, "sidecar not a JSON object")
                self.misses += 1
                return None
            try:
                data = blob_path.read_bytes()
            except OSError:
                self.misses += 1
                return None
            if len(data) != sidecar.get("blob_bytes"):
                self._quarantine(key, "blob size mismatch")
                self.misses += 1
                return None
            if blob_crc(data) != sidecar.get("crc"):
                self._quarantine(key, "blob CRC mismatch")
                self.misses += 1
                return None
            try:
                array = np.load(blob_path, mmap_mode="r")
            except (ValueError, OSError):
                self._quarantine(key, "unreadable npy header")
                self.misses += 1
                return None
            if array.ndim != 1 or array.dtype != np.int64:
                self._quarantine(key, "wrong shape or dtype")
                self.misses += 1
                return None
            self._mapped[key] = array
            self.hits += 1
            self.bytes_mapped += array.nbytes
            return array

    def contains(self, key: str) -> bool:
        """Whether a committed (sidecar-present) blob exists for ``key``."""
        return (
            self.enabled
            and self._sidecar_path(key).exists()
            and self._blob_path(key).exists()
        )

    def put(
        self,
        key: str,
        array: np.ndarray,
        descriptor: Mapping[str, Any] | None = None,
    ) -> np.ndarray | None:
        """Persist ``array`` under ``key``; returns the mmap'd copy.

        The blob is written first, the sidecar second — each atomically —
        so a crash between the two leaves an uncommitted blob that reads
        as a miss and is overwritten by the next put.
        """
        if not self.enabled:
            return None
        if array.ndim != 1 or array.dtype != np.int64:
            raise StreamStoreError(
                f"stream blobs must be 1-D int64, got {array.dtype} "
                f"ndim={array.ndim}"
            )
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array))
        data = buffer.getvalue()
        atomic_write_bytes(self._blob_path(key), data)
        sidecar = {
            "key": key,
            "refs": int(array.shape[0]),
            "blob_bytes": len(data),
            "crc": blob_crc(data),
        }
        if descriptor is not None:
            sidecar["descriptor"] = dict(descriptor)
        atomic_write_text(
            self._sidecar_path(key), json.dumps(sidecar, sort_keys=True) + "\n"
        )
        self.puts += 1
        self.bytes_written += len(data)
        mapped = np.load(self._blob_path(key), mmap_mode="r")
        self._mapped[key] = mapped
        return mapped

    # -- maintenance (the ``repro streams`` CLI surface)

    def _contained(self, path: Path) -> bool:
        """Whether ``path`` resolves to inside the store directory."""
        root = self.directory.resolve()
        try:
            path.resolve().relative_to(root)
        except ValueError:
            return False
        return True

    def stats(self) -> dict[str, Any]:
        """On-disk inventory plus this instance's counters."""
        blobs = 0
        total_bytes = 0
        total_refs = 0
        if self.directory.is_dir():
            sidecars = sorted(self.directory.glob("*.json")) + sorted(
                self.directory.glob(
                    "[0-9a-f][0-9a-f]/[0-9a-f][0-9a-f]/*.json"
                )
            )
            for sidecar_path in sidecars:
                try:
                    sidecar = json.loads(sidecar_path.read_text())
                except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                    continue
                if not isinstance(sidecar, dict):
                    continue
                blob_path = self._blob_path(str(sidecar.get("key", "")))
                if not blob_path.exists():
                    continue
                blobs += 1
                total_bytes += int(sidecar.get("blob_bytes", 0))
                total_refs += int(sidecar.get("refs", 0))
        quarantined = 0
        if self._quarantine_dir.is_dir():
            quarantined = sum(
                1 for p in self._quarantine_dir.glob("*.npy")
            )
        return {
            "directory": str(self.directory),
            "blobs": blobs,
            "blob_bytes": total_bytes,
            "compiled_refs": total_refs,
            "quarantined": quarantined,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
                "bytes_mapped": self.bytes_mapped,
                "bytes_written": self.bytes_written,
            },
        }

    def clear(self, pinned: frozenset[str] | set[str] = frozenset()) -> int:
        """Delete every blob, sidecar and quarantined file; returns the
        number of blobs dropped.

        Refuses (raising :class:`StreamStoreError`) to delete anything
        that does not resolve to inside the store directory — a symlink
        planted in the cache cannot steer the unlink elsewhere, and a
        mis-set ``--dir`` cannot silently eat an unrelated tree.

        Entries whose key appears in ``pinned`` — a live journal lease
        still references them — survive the clear, counted in
        :attr:`pinned_skips`.
        """
        if not self.directory.is_dir():
            self._mapped.clear()
            return 0
        victims: list[Path] = []
        shard_glob = "[0-9a-f][0-9a-f]/[0-9a-f][0-9a-f]"
        for pattern in ("*.npy", "*.json", "*.tmp"):
            victims.extend(self.directory.glob(pattern))
            victims.extend(self.directory.glob(f"{shard_glob}/{pattern}"))
        if self._quarantine_dir.is_dir():
            victims.extend(self._quarantine_dir.iterdir())
        for path in victims:
            if path.is_symlink() or not self._contained(path):
                raise StreamStoreError(
                    f"refusing to clear {path}: it escapes the stream store "
                    f"directory {self.directory}"
                )
        if pinned:
            spared = {
                path
                for path in victims
                if path.suffix in (".npy", ".json") and path.stem in pinned
            }
            self.pinned_skips += sum(
                1 for p in spared if p.suffix == ".npy"
            )
            victims = [p for p in victims if p not in spared]
        dropped = sum(1 for p in victims if p.suffix == ".npy")
        for path in victims:
            try:
                path.unlink()
            except OSError:
                pass
        if self._quarantine_dir.is_dir():
            try:
                self._quarantine_dir.rmdir()
            except OSError:
                pass
        self._mapped = {
            key: array
            for key, array in self._mapped.items()
            if key in pinned
        }
        return dropped
