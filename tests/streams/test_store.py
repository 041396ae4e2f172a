"""The blob store under normal use and under damage."""

import json

import numpy as np
import pytest

from repro.errors import StreamStoreError
from repro.streams import StreamStore
from repro.streams.store import blob_crc


def _array(n=1000, seed=7):
    return np.random.default_rng(seed).integers(0, 1 << 30, n, dtype=np.int64)


def _seed_store(directory, keys=("k1", "k2")):
    store = StreamStore(directory)
    for i, key in enumerate(keys):
        store.put(key, _array(seed=i), descriptor={"origin": key})
    return store


class TestRoundTrip:
    def test_put_get_is_bit_identical(self, tmp_path):
        store = StreamStore(tmp_path)
        original = _array()
        store.put("key", original)
        mapped = StreamStore(tmp_path).get("key")
        assert mapped is not None
        assert np.array_equal(np.asarray(mapped), original)

    def test_mapped_blob_is_read_only(self, tmp_path):
        store = _seed_store(tmp_path)
        mapped = store.get("k1")
        with pytest.raises(ValueError):
            mapped[0] = 1

    def test_unknown_key_misses(self, tmp_path):
        store = StreamStore(tmp_path)
        assert store.get("nope") is None
        assert store.misses == 1

    def test_repeat_get_memoizes(self, tmp_path):
        store = _seed_store(tmp_path)
        first = store.get("k1")
        second = store.get("k1")
        assert first is second

    def test_disabled_store_misses_and_drops_puts(self, tmp_path):
        _seed_store(tmp_path)
        bypassed = StreamStore(tmp_path, enabled=False)
        assert bypassed.get("k1") is None
        assert bypassed.put("k3", _array()) is None
        assert not bypassed.contains("k3")
        assert StreamStore(tmp_path).get("k3") is None

    def test_put_rejects_wrong_shape_and_dtype(self, tmp_path):
        store = StreamStore(tmp_path)
        with pytest.raises(StreamStoreError):
            store.put("bad", _array().astype(np.float64))
        with pytest.raises(StreamStoreError):
            store.put("bad", _array().reshape(10, 100))


class TestCorruption:
    def test_flipped_byte_is_quarantined_not_served(self, tmp_path):
        _seed_store(tmp_path)
        blob = tmp_path / "k1.npy"
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob.write_bytes(bytes(data))
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None  # never serve damaged replay data
        assert fresh.corrupt == 1
        assert (tmp_path / "quarantine" / "k1.npy").exists()
        assert fresh.get("k2") is not None  # neighbours unaffected

    def test_truncated_blob_is_quarantined(self, tmp_path):
        _seed_store(tmp_path)
        blob = tmp_path / "k1.npy"
        blob.write_bytes(blob.read_bytes()[:100])
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None
        assert fresh.corrupt == 1

    def test_garbage_sidecar_is_quarantined(self, tmp_path):
        _seed_store(tmp_path)
        (tmp_path / "k1.json").write_text("{not json")
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None
        assert fresh.corrupt == 1

    def test_non_utf8_sidecar_is_quarantined(self, tmp_path):
        _seed_store(tmp_path)
        (tmp_path / "k1.json").write_bytes(b'{"crc": "\xff"}')
        fresh = StreamStore(tmp_path)
        assert fresh.stats()["blobs"] == 1
        assert fresh.get("k1") is None
        assert fresh.corrupt == 1
        assert fresh.get("k2") is not None

    def test_non_object_sidecar_is_quarantined(self, tmp_path):
        _seed_store(tmp_path)
        (tmp_path / "k1.json").write_text("[1]\n")  # valid JSON, not an object
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None
        assert fresh.corrupt == 1
        assert (tmp_path / "quarantine" / "k1.npy").exists()
        assert fresh.get("k2") is not None

    def test_stats_skip_a_non_object_sidecar(self, tmp_path):
        _seed_store(tmp_path)
        (tmp_path / "k1.json").write_text("[1]\n")
        stats = StreamStore(tmp_path).stats()
        assert stats["blobs"] == 1  # k2 alone
        assert stats["compiled_refs"] == 1000
        assert stats["session"]["corrupt"] == 0  # an inventory moves nothing

    def test_blob_without_sidecar_is_a_plain_miss(self, tmp_path):
        """An interrupted put (blob committed, sidecar not) must read as
        a miss — the sidecar is the commit point — and not count as
        corruption."""
        _seed_store(tmp_path)
        (tmp_path / "k1.json").unlink()
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None
        assert fresh.corrupt == 0
        assert not fresh.contains("k1")

    def test_recompile_after_quarantine_heals_the_store(self, tmp_path):
        store = _seed_store(tmp_path)
        (tmp_path / "k1.npy").write_bytes(b"garbage")
        fresh = StreamStore(tmp_path)
        assert fresh.get("k1") is None
        replacement = _array(seed=99)
        fresh.put("k1", replacement)
        assert np.array_equal(
            np.asarray(StreamStore(tmp_path).get("k1")), replacement
        )


class TestStats:
    def test_inventory_counts_committed_blobs(self, tmp_path):
        store = _seed_store(tmp_path)
        stats = store.stats()
        assert stats["blobs"] == 2
        assert stats["compiled_refs"] == 2000
        assert stats["blob_bytes"] > 0
        assert stats["session"]["puts"] == 2

    def test_quarantined_blobs_are_counted(self, tmp_path):
        _seed_store(tmp_path)
        (tmp_path / "k1.npy").write_bytes(b"garbage")
        fresh = StreamStore(tmp_path)
        fresh.get("k1")
        assert fresh.stats()["quarantined"] == 1


class TestClear:
    def test_clear_drops_everything(self, tmp_path):
        store = _seed_store(tmp_path)
        (tmp_path / "k1.npy").write_bytes(b"garbage")
        fresh = StreamStore(tmp_path)
        fresh.get("k1")  # quarantine it
        assert fresh.clear() >= 1
        assert fresh.stats()["blobs"] == 0
        assert not (tmp_path / "quarantine").exists()

    def test_clear_of_missing_directory_is_a_noop(self, tmp_path):
        assert StreamStore(tmp_path / "absent").clear() == 0

    def test_clear_refuses_symlinked_blobs(self, tmp_path):
        store_dir = tmp_path / "store"
        _seed_store(store_dir)
        victim = tmp_path / "precious.npy"
        victim.write_bytes(b"do not delete")
        (store_dir / "planted.npy").symlink_to(victim)
        with pytest.raises(StreamStoreError, match="refusing to clear"):
            StreamStore(store_dir).clear()
        assert victim.exists()
