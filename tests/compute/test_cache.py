"""Unit tests for the content-addressed artifact cache."""

import io
import json

import numpy as np
import pytest

from repro.compute import ArtifactCache, canonical_blob, canonical_key
from repro.compute.cache import get_or_compute, get_or_compute_row
from repro.observability.runtime import scoped
from repro.storage.integrity import wrap


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
        first, key1, hit1 = get_or_compute(cache, config, produce)
        second, key2, hit2 = get_or_compute(cache, config, produce)
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

        get_or_compute(cache, {"seed": 1}, produce)
        get_or_compute(cache, {"seed": 2}, produce)
        assert len(calls) == 2

    def test_entry_meta_records_config(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        _, key, _ = get_or_compute(cache, {"kind": "demo", "n": 4}, lambda: _arrays())
        _, meta = cache.get(key)
        assert meta == {"config": {"kind": "demo", "n": 4}}


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
        get_or_compute(cache, config, lambda: _arrays(seed=3))
        entry = cache.path_for(canonical_key(config))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))

        arrays, _, hit = get_or_compute(cache, config, lambda: _arrays(seed=3))
        assert hit is False  # corrupt entry must not serve
        np.testing.assert_array_equal(arrays["x"], _arrays(seed=3)["x"])
        assert cache.corrupt == 1
        quarantined = list(cache.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        # The healed entry is readable again.
        _, _, hit = get_or_compute(cache, config, lambda: _arrays(seed=3))
        assert hit is True

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("k", _arrays())
        entry = cache.path_for("k")
        entry.write_bytes(entry.read_bytes()[:10])
        assert cache.get("k") is None
        assert cache.corrupt == 1

    def test_same_key_corrupted_twice_keeps_both_copies(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        for round_ in range(2):
            cache.put("k", _arrays(seed=round_))
            entry = cache.path_for("k")
            entry.write_bytes(entry.read_bytes()[:10])
            assert cache.get("k") is None
        stats = cache.stats()
        assert stats["quarantined"] == stats["corrupt"] == 2
        assert sorted(p.name for p in cache.quarantine_dir.iterdir()) == [
            entry.name, entry.name + ".1",
        ]

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


def _write_parent_entry(path, arrays, meta):
    """The entry encoding written before the shared archive codec,
    inlined: a uint8 ``__meta__`` array beside the arrays."""
    blob = json.dumps(meta).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(buffer, __meta__=np.frombuffer(blob, dtype=np.uint8), **arrays)
    path.write_bytes(wrap(buffer.getvalue()))


class TestParentLayout:
    def test_parent_array_entry_reads_bit_equal(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = {"kind": "demo", "seed": 4}
        arrays = {**_arrays(seed=4), "w0000": np.arange(6, dtype=np.int32)}
        meta = {"config": config, "source": "parent"}
        _write_parent_entry(cache.path_for(canonical_key(config)), arrays, meta)

        loaded, key, hit = get_or_compute(cache, config, lambda: {})
        assert hit is True
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].tobytes() == array.tobytes()
        assert cache.get(key)[1] == meta

    def test_parent_json_cell_reads_bit_equal(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = {"kind": "demo_cell", "n": 3}
        payload = {"mae": 0.1 + 0.2, "n": 3, "per": [1e-17, 2.5]}
        cell = json.dumps(payload, sort_keys=True).encode("utf-8")
        _write_parent_entry(
            cache.path_for(canonical_key(config)),
            {"__json__": np.frombuffer(cell, dtype=np.uint8)},
            {"config": config},
        )

        def fail():
            raise AssertionError("a parent-written cell must not recompute")

        row = get_or_compute_row(cache, config, fail)
        assert row.pop("cache_hit") is True
        assert row.pop("cache_key") == canonical_key(config)
        assert row == payload
        assert json.dumps(row, sort_keys=True).encode("utf-8") == cell
        assert cache.stats()["entries"] == 1


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
            get_or_compute(cache, {"k": 1}, lambda: _arrays())
            get_or_compute(cache, {"k": 1}, lambda: _arrays())
            requests = registry.counter("compute_cache_requests_total")
            assert requests.value(outcome="miss") == 1
            assert requests.value(outcome="hit") == 1
            assert registry.gauge("compute_cache_bytes").value() > 0
