"""Unit tests for the content-addressed artifact cache."""

import os

import numpy as np
import pytest

from repro.compute import ArtifactCache, canonical_blob, canonical_key
from repro.compute.cache import get_or_compute, get_or_compute_row
from repro.observability.runtime import scoped


def _arrays(seed=0, size=64):
    rng = np.random.default_rng(seed)
    return {"x": rng.random((4, size)), "y": rng.random((4, 2))}


class TestCanonicalKey:
    def test_key_order_irrelevant(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_tuple_and_list_collide(self):
        assert canonical_key({"v": (1, 2)}) == canonical_key({"v": [1, 2]})

    def test_numpy_scalars_coerced(self):
        assert canonical_key({"n": np.int64(5)}) == canonical_key({"n": 5})
        assert canonical_key({"f": np.float64(0.5)}) == canonical_key({"f": 0.5})

    def test_semantic_change_misses(self):
        assert canonical_key({"n": 5}) != canonical_key({"n": 6})
        assert canonical_key({"n": 5}) != canonical_key({"n": 5, "extra": None})

    def test_nested_arrays_canonicalized(self):
        key = canonical_key({"grid": np.arange(3)})
        assert key == canonical_key({"grid": [0, 1, 2]})

    def test_uncanonicalizable_value_rejected(self):
        with pytest.raises(TypeError, match="canonicalizable"):
            canonical_blob({"fn": object()})


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        arrays = _arrays()
        cache.put("k1", arrays, {"note": "demo"})
        loaded, meta = cache.get("k1")
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])
        assert meta == {"note": "demo"}

    def test_get_missing_is_none(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_reserved_meta_name_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="reserved"):
            cache.put("k", {"__meta__": np.zeros(2)})

    def test_empty_arrays_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="non-empty"):
            cache.put("k", {})


class TestGetOrCreate:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []

        def produce():
            calls.append(1)
            return _arrays(seed=1)

        config = {"kind": "demo", "seed": 1}
        first, key1, hit1 = cache.get_or_create(config, produce)
        second, key2, hit2 = cache.get_or_create(config, produce)
        assert (hit1, hit2) == (False, True)
        assert key1 == key2 == canonical_key(config)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["x"], second["x"])

    def test_different_config_regenerates(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []

        def produce():
            calls.append(1)
            return _arrays(seed=len(calls))

        cache.get_or_create({"seed": 1}, produce)
        cache.get_or_create({"seed": 2}, produce)
        assert len(calls) == 2

    def test_entry_meta_records_config(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        _, key, _ = cache.get_or_create(
            {"kind": "demo", "n": 4}, lambda: _arrays(), meta={"source": "test"}
        )
        _, meta = cache.get(key)
        assert meta["config"] == {"kind": "demo", "n": 4}
        assert meta["source"] == "test"


class TestCacheOptional:
    """``cache=None`` computes directly: same value, ``hit`` False, no files."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "none"])
    def test_arrays(self, tmp_path, monkeypatch, cached):
        monkeypatch.chdir(tmp_path)
        config = {"kind": "demo", "seed": 1}
        cache = ArtifactCache(tmp_path / "cache") if cached else None
        first, key1, hit1 = get_or_compute(cache, config, lambda: _arrays(1))
        second, key2, hit2 = get_or_compute(cache, config, lambda: _arrays(1))
        assert key1 == key2 == canonical_key(config)
        assert (hit1, hit2) == (False, cached)
        for arrays in (first, second):
            for name, expected in _arrays(1).items():
                np.testing.assert_array_equal(arrays[name], expected)
        if not cached:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "none"])
    def test_rows(self, tmp_path, monkeypatch, cached):
        monkeypatch.chdir(tmp_path)
        config = {"kind": "demo_cell", "n": 3}
        cache = ArtifactCache(tmp_path / "cache") if cached else None
        first = get_or_compute_row(cache, config, lambda: {"mae": 0.25, "n": 3})
        second = get_or_compute_row(cache, config, lambda: {"mae": 0.25, "n": 3})
        assert (first["cache_hit"], second["cache_hit"]) == (False, cached)
        for row in (first, second):
            assert {k: row[k] for k in ("mae", "n")} == {"mae": 0.25, "n": 3}
        if cached:
            assert first["cache_key"] == second["cache_key"]
            assert first["cache_key"] == canonical_key(config)
        else:
            assert "cache_key" not in first
            assert list(tmp_path.iterdir()) == []


class TestCorruption:
    def test_corrupt_entry_quarantined_and_regenerated(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = {"kind": "demo"}
        cache.get_or_create(config, lambda: _arrays(seed=3))
        entry = cache.path_for(canonical_key(config))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))

        arrays, _, hit = cache.get_or_create(config, lambda: _arrays(seed=3))
        assert hit is False  # corrupt entry must not serve
        np.testing.assert_array_equal(arrays["x"], _arrays(seed=3)["x"])
        assert cache.corrupt == 1
        quarantined = list(cache.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        # The healed entry is readable again.
        _, _, hit = cache.get_or_create(config, lambda: _arrays(seed=3))
        assert hit is True

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("k", _arrays())
        entry = cache.path_for("k")
        entry.write_bytes(entry.read_bytes()[:10])
        assert cache.get("k") is None
        assert cache.corrupt == 1

    def test_verify_reports_and_quarantines(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("good", _arrays(seed=1))
        cache.put("bad", _arrays(seed=2))
        entry = cache.path_for("bad")
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0x01
        entry.write_bytes(bytes(blob))
        report = cache.verify()
        assert report["good"] == "ok"
        assert report["bad"].startswith("corrupt:")
        assert not cache.path_for("bad").exists()
        assert (cache.quarantine_dir / entry.name).exists()


class TestEviction:
    def test_lru_evicts_oldest(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("a", _arrays(seed=1))
        entry_size = cache.total_bytes()
        cache.max_bytes = int(2.5 * entry_size)
        os.utime(cache.path_for("a"), (1000, 1000))
        cache.put("b", _arrays(seed=2))
        os.utime(cache.path_for("b"), (2000, 2000))
        cache.put("c", _arrays(seed=3))
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("a", _arrays(seed=1))
        entry_size = cache.total_bytes()
        cache.max_bytes = int(2.5 * entry_size)
        os.utime(cache.path_for("a"), (1000, 1000))
        cache.put("b", _arrays(seed=2))
        os.utime(cache.path_for("b"), (2000, 2000))
        assert cache.get("a") is not None  # bumps a's mtime to now
        cache.put("c", _arrays(seed=3))
        assert cache.get("a") is not None
        assert cache.get("b") is None  # b became the LRU entry

    def test_just_written_entry_never_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("a", _arrays(seed=1))
        entry_size = cache.total_bytes()
        # Bound far below one entry: the new entry must still survive.
        cache.max_bytes = max(entry_size // 2, 1)
        cache.put("b", _arrays(seed=2))
        assert cache.get("b") is not None
        assert cache.get("a") is None

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(tmp_path / "cache", max_bytes=0)


class TestMaintenance:
    def test_clear_keeps_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("a", _arrays(seed=1))
        cache.put("bad", _arrays(seed=2))
        entry = cache.path_for("bad")
        entry.write_bytes(b"garbage")
        assert cache.get("bad") is None  # quarantined
        assert cache.clear() == 1
        assert cache.total_bytes() == 0
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_stats_and_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("a", _arrays(seed=1))
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["total_bytes"] > 0
        rows = cache.entries()
        assert rows[0]["key"] == "a"
        assert rows[0]["bytes"] == stats["total_bytes"]

    def test_metrics_on_registry(self, tmp_path):
        with scoped() as (registry, _):
            cache = ArtifactCache(tmp_path / "cache")
            cache.get_or_create({"k": 1}, lambda: _arrays())
            cache.get_or_create({"k": 1}, lambda: _arrays())
            requests = registry.counter("compute_cache_requests_total")
            assert requests.value(outcome="miss") == 1
            assert requests.value(outcome="hit") == 1
            assert registry.gauge("compute_cache_bytes").value() > 0
