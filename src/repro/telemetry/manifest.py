"""Run manifests: one JSONL record per experiment/trial, forever.

Reproducibility claims live or die on machine-readable, comparable run
artifacts (the gem5 standardization and Ramulator 2.0 re-evaluation
arguments).  A manifest record captures *what ran* (name, configuration
and its content hash, seed), *which code ran it* (package code version,
git revision), *what it cost* (wall clock) and *what it measured* (a
metrics-registry snapshot plus a small results dict) — enough to plot a
durable performance trajectory across months of commits.

Records append to ``manifests.jsonl`` next to the farm result cache
(both are append-only JSONL stores owned by the master process), or to
any path the CLI's ``--manifest-out`` names.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.atomicio import atomic_append_line, read_jsonl
from repro.errors import TelemetryError

#: bump when the record layout changes incompatibly
#: v2: optional ``estimates`` block — sampled results carry their value,
#: 95% CI, method and an ``exact`` flag, so estimated numbers can never
#: be mistaken for measured ones downstream
MANIFEST_SCHEMA_VERSION = 2

#: default location — deliberately next to the farm's result cache
DEFAULT_MANIFEST_PATH = Path(".farm-cache") / "manifests.jsonl"

#: required record fields and their JSON types, the schema contract
#: checked by :func:`validate_record` (tests and CI both call it)
_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "schema": int,
    "kind": str,
    "name": str,
    "configuration": str,
    "config_hash": str,
    "seed": int,
    "code_version": str,
    "git_version": str,
    "created_unix": (int, float),
    "wall_clock_secs": (int, float),
    "metrics": dict,
    "results": dict,
}

#: optional fields (schema v2+) and their JSON types; absent is valid
#: (every v1 record stays valid under v2)
_OPTIONAL_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "estimates": dict,
}

#: required shape of one ``estimates`` entry: metric name ->
#: ``{value, ci_low, ci_high, method, exact}``
_ESTIMATE_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "value": (int, float),
    "ci_low": (int, float),
    "ci_high": (int, float),
    "method": str,
    "exact": bool,
}

_git_version_cache: str | None = None


def config_hash(config: Any) -> str:
    """Short content hash of any fingerprintable configuration value.

    Accepts everything :func:`repro.farm.jobs.canonical` does —
    dataclasses (``TapewormConfig``, ``CacheConfig``), enums, mappings,
    sequences and JSON scalars — so semantically equal configs hash
    equal regardless of spelling.
    """
    from repro.farm.jobs import canonical

    blob = json.dumps(canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def git_version() -> str:
    """The repository's short revision, or ``"unknown"`` outside git."""
    global _git_version_cache
    if _git_version_cache is None:
        try:
            result = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
            )
            _git_version_cache = (
                result.stdout.strip() if result.returncode == 0 else "unknown"
            )
        except (OSError, subprocess.SubprocessError):
            _git_version_cache = "unknown"
    return _git_version_cache or "unknown"


@dataclass(frozen=True)
class RunManifest:
    """One run's manifest, ready to serialize."""

    kind: str                 #: "run", "experiment", "trial", ...
    name: str                 #: workload or experiment name
    configuration: str        #: human-readable configuration description
    config_hash: str          #: content hash from :func:`config_hash`
    seed: int = 0
    wall_clock_secs: float = 0.0
    metrics: Mapping[str, Any] = field(default_factory=dict)
    results: Mapping[str, Any] = field(default_factory=dict)
    #: sampled-run estimates: metric name -> {value, ci_low, ci_high,
    #: method, exact}; None for runs that measured everything directly
    estimates: Mapping[str, Mapping[str, Any]] | None = None

    def record(self) -> dict[str, Any]:
        """The JSONL record, stamped with schema and provenance."""
        from repro.farm.jobs import CODE_VERSION

        record = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "configuration": self.configuration,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "code_version": CODE_VERSION,
            "git_version": git_version(),
            "created_unix": round(time.time(), 3),
            "wall_clock_secs": round(self.wall_clock_secs, 6),
            "metrics": dict(self.metrics),
            "results": dict(self.results),
        }
        if self.estimates is not None:
            record["estimates"] = {
                name: dict(entry) for name, entry in self.estimates.items()
            }
        return record


def write_manifest(
    manifest: RunManifest | Mapping[str, Any],
    path: str | Path | None = None,
) -> Path:
    """Append one record to the manifest log; returns the path written."""
    record = manifest.record() if isinstance(manifest, RunManifest) else dict(manifest)
    problems = validate_record(record)
    if problems:
        raise TelemetryError(
            f"refusing to write an invalid manifest record: {'; '.join(problems)}"
        )
    path = Path(path) if path is not None else DEFAULT_MANIFEST_PATH
    # one O_APPEND write and fsync: a kill mid-write can leave one torn
    # last line, which the next append seals and the reader skips
    atomic_append_line(path, json.dumps(record, sort_keys=True))
    return path


def read_manifests(path: str | Path | None = None) -> list[dict[str, Any]]:
    """All records in the log, oldest first.

    Torn or corrupt lines are skipped: a torn write loses one record,
    not the log.
    """
    path = Path(path) if path is not None else DEFAULT_MANIFEST_PATH
    return [
        line.record for line in read_jsonl(path) if line.record is not None
    ]


def validate_record(record: Mapping[str, Any]) -> list[str]:
    """Schema-check one record; returns a list of problems (empty = ok)."""
    problems = []
    for name, expected in _SCHEMA.items():
        if name not in record:
            problems.append(f"missing field {name!r}")
        elif isinstance(record[name], bool) or not isinstance(
            record[name], expected
        ):
            problems.append(
                f"field {name!r} should be {expected}, "
                f"got {type(record[name]).__name__}"
            )
    for name, expected in _OPTIONAL_SCHEMA.items():
        if name not in record:
            continue
        if isinstance(record[name], bool) or not isinstance(
            record[name], expected
        ):
            problems.append(
                f"field {name!r} should be {expected}, "
                f"got {type(record[name]).__name__}"
            )
    if isinstance(record.get("estimates"), dict):
        problems.extend(_validate_estimates(record["estimates"]))
    if not problems and record["schema"] > MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema {record['schema']} is newer than supported "
            f"{MANIFEST_SCHEMA_VERSION}"
        )
    return problems


def _validate_estimates(estimates: Mapping[str, Any]) -> list[str]:
    """Shape-check every ``estimates`` entry against the v2 contract."""
    problems = []
    for metric, entry in estimates.items():
        if not isinstance(entry, dict):
            problems.append(f"estimate {metric!r} should be a dict")
            continue
        for name, expected in _ESTIMATE_SCHEMA.items():
            if name not in entry:
                problems.append(f"estimate {metric!r} missing {name!r}")
            elif expected is not bool and (
                isinstance(entry[name], bool)
                or not isinstance(entry[name], expected)
            ):
                problems.append(
                    f"estimate {metric!r} field {name!r} should be "
                    f"{expected}, got {type(entry[name]).__name__}"
                )
            elif expected is bool and not isinstance(entry[name], bool):
                problems.append(
                    f"estimate {metric!r} field {name!r} should be bool, "
                    f"got {type(entry[name]).__name__}"
                )
    return problems
