"""Run manifests: hashing, writing, reading, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.errors import TelemetryError
from repro.farm.jobs import CODE_VERSION
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    git_version,
    read_manifests,
    validate_record,
    write_manifest,
)


def _manifest(**overrides) -> RunManifest:
    fields = dict(
        kind="run",
        name="espresso",
        configuration="16K direct-mapped",
        config_hash=config_hash({"cache": "16K"}),
        seed=7,
        wall_clock_secs=1.25,
        metrics={"machine.cpu.refs{component=user}": 100},
        results={"misses": 42},
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestConfigHash:
    def test_stable_and_short(self):
        h = config_hash({"a": 1, "b": [2, 3]})
        assert h == config_hash({"b": [2, 3], "a": 1})
        assert len(h) == 16
        int(h, 16)  # hex

    def test_sensitive_to_content(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_accepts_dataclass_configs(self):
        one = config_hash(TapewormConfig(cache=CacheConfig(size_bytes=4096)))
        two = config_hash(TapewormConfig(cache=CacheConfig(size_bytes=4096)))
        other = config_hash(TapewormConfig(cache=CacheConfig(size_bytes=8192)))
        assert one == two
        assert one != other


class TestRecord:
    def test_record_is_stamped_and_valid(self):
        record = _manifest().record()
        assert record["schema"] == MANIFEST_SCHEMA_VERSION
        assert record["code_version"] == CODE_VERSION
        assert record["git_version"] == git_version()
        assert record["created_unix"] > 0
        assert validate_record(record) == []

    def test_record_is_json_encodable(self):
        json.dumps(_manifest().record())


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "logs" / "manifests.jsonl"
        write_manifest(_manifest(seed=1), path)
        write_manifest(_manifest(seed=2), path)
        records = read_manifests(path)
        assert [r["seed"] for r in records] == [1, 2]
        assert all(validate_record(r) == [] for r in records)

    def test_missing_log_reads_empty(self, tmp_path):
        assert read_manifests(tmp_path / "nope.jsonl") == []

    def test_torn_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        write_manifest(_manifest(seed=1), path)
        with path.open("a") as handle:
            handle.write('{"torn": ')  # interrupted write, no newline
        write_manifest(_manifest(seed=2), path)
        # the torn fragment glues onto the next record's JSON, so at
        # minimum the intact first record survives and nothing raises
        records = read_manifests(path)
        assert records[0]["seed"] == 1

    def test_non_utf8_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        write_manifest(_manifest(seed=1), path)
        with path.open("ab") as handle:
            handle.write(b"\xff\n")
        write_manifest(_manifest(seed=2), path)
        assert [r["seed"] for r in read_manifests(path)] == [1, 2]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        write_manifest(_manifest(), path)
        with path.open("a") as handle:
            handle.write("\n\n")
        assert len(read_manifests(path)) == 1

    def test_invalid_record_refused(self, tmp_path):
        with pytest.raises(TelemetryError):
            write_manifest({"kind": "run"}, tmp_path / "manifests.jsonl")
        assert not (tmp_path / "manifests.jsonl").exists()


class TestValidateRecord:
    def test_missing_field_reported(self):
        record = _manifest().record()
        del record["seed"]
        problems = validate_record(record)
        assert any("seed" in p for p in problems)

    def test_wrong_type_reported(self):
        record = _manifest().record()
        record["wall_clock_secs"] = "fast"
        assert any("wall_clock_secs" in p for p in validate_record(record))

    def test_bool_is_not_an_int(self):
        record = _manifest().record()
        record["seed"] = True
        assert any("seed" in p for p in validate_record(record))

    def test_newer_schema_rejected(self):
        record = _manifest().record()
        record["schema"] = MANIFEST_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_record(record))


def _estimate(**overrides) -> dict:
    entry = dict(
        value=1234.5, ci_low=1100.0, ci_high=1369.0,
        method="stratified-t", exact=False,
    )
    entry.update(overrides)
    return entry


class TestSchemaV2Estimates:
    """The v2 ``estimates`` block: optional, but strictly shaped."""

    def test_schema_version_is_two(self):
        assert MANIFEST_SCHEMA_VERSION == 2

    def test_v1_record_without_estimates_still_valid(self):
        record = _manifest().record()
        assert "estimates" not in record  # absent unless provided
        assert validate_record(record) == []

    def test_estimates_block_round_trips(self, tmp_path):
        manifest = _manifest(
            estimates={"espresso.misses": _estimate()}
        )
        record = manifest.record()
        assert validate_record(record) == []
        path = tmp_path / "manifests.jsonl"
        write_manifest(manifest, path)
        stored = read_manifests(path)[0]
        assert stored["estimates"]["espresso.misses"]["ci_low"] == 1100.0
        assert stored["estimates"]["espresso.misses"]["exact"] is False

    def test_exact_entries_allowed(self):
        record = _manifest(
            estimates={"misses": _estimate(ci_low=1234.5, ci_high=1234.5,
                                           method="exact", exact=True)}
        ).record()
        assert validate_record(record) == []

    def test_non_dict_estimates_rejected(self):
        record = _manifest().record()
        record["estimates"] = "not-a-dict"
        assert any("estimates" in p for p in validate_record(record))

    def test_non_dict_entry_rejected(self):
        record = _manifest(estimates={"misses": _estimate()}).record()
        record["estimates"]["misses"] = [1, 2, 3]
        assert any("misses" in p for p in validate_record(record))

    def test_missing_entry_field_rejected(self):
        entry = _estimate()
        del entry["ci_high"]
        record = _manifest(estimates={"misses": entry}).record()
        assert any("ci_high" in p for p in validate_record(record))

    def test_entry_field_types_checked(self):
        record = _manifest(
            estimates={"misses": _estimate(value="big")}
        ).record()
        assert any("value" in p for p in validate_record(record))

    def test_exact_must_be_bool_not_int(self):
        record = _manifest(
            estimates={"misses": _estimate(exact=1)}
        ).record()
        assert any("exact" in p for p in validate_record(record))

    def test_numeric_field_rejects_bool(self):
        record = _manifest(
            estimates={"misses": _estimate(ci_low=True)}
        ).record()
        assert any("ci_low" in p for p in validate_record(record))

    def test_invalid_estimates_refused_at_write(self, tmp_path):
        manifest = _manifest(estimates={"misses": {"value": 1.0}})
        with pytest.raises(TelemetryError):
            write_manifest(manifest, tmp_path / "manifests.jsonl")
