"""Content-addressed artifact cache for deterministically generated data.

Every sweep and bench in this repo regenerates its simulated datasets from
scratch, even though the generator is a pure function of (simulator
characteristics, compound set, n, seed, normalization).  This module keys
artifacts by a canonical SHA-256 over exactly that generating config and
stores them as :mod:`repro.storage.integrity` checksummed envelopes, so a
repeat generation is a verified read instead of a re-render.

Guarantees:

* **Content addressing** — :func:`canonical_key` serializes the config to
  canonical JSON (sorted keys, compact separators, tuples as lists, numpy
  scalars coerced) and hashes it; semantically equal configs collide on
  purpose, any parameter change misses.
* **Verify-on-read** — entries are envelope-wrapped
  (magic + version + length + SHA-256); a corrupt entry is *quarantined*
  (moved aside for post-mortem, never silently deleted), counted, and
  treated as a miss so the caller regenerates.
* **Bounded size** — ``max_bytes`` enforces an LRU evict (recency is the
  entry's mtime, bumped on every hit), oldest-first, never evicting the
  entry just written.
* **Observability** — hit/miss/eviction/corrupt counters and a byte-size
  gauge on the global registry, mirrored in per-instance :meth:`stats`.

Seeded cells draw every stream from :func:`derived_seed` and cache through
:func:`get_or_compute` / :func:`get_or_compute_row` (``cache=None`` computes).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.observability.runtime import get_registry
from repro.storage.integrity import (
    CorruptArtifactError,
    StorageError,
    atomic_write_bytes,
    unwrap,
    wrap,
)

__all__ = [
    "CACHE_FORMAT_VERSION", "canonical_blob", "canonical_key", "derived_seed",
    "ArtifactCache", "get_or_compute", "get_or_compute_row",
]

# Bump when the on-disk entry layout (not the envelope) changes; part of
# the key, so old-format entries simply miss instead of misparsing.
CACHE_FORMAT_VERSION = 1

_ENTRY_SUFFIX = ".npz.env"
_META_KEY = "__meta__"


def _canonical_default(value):
    """Coerce non-JSON values deterministically (numpy scalars, arrays)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(
        f"cache config value of type {type(value).__name__} is not canonicalizable"
    )


def canonical_blob(config: Mapping) -> bytes:
    """The canonical JSON bytes of a generating config.

    Key order, tuple-vs-list and numpy scalar types never change the
    bytes; any semantic difference does.
    """
    return json.dumps(
        {"cache_format": CACHE_FORMAT_VERSION, "config": config},
        sort_keys=True,
        separators=(",", ":"),
        default=_canonical_default,
    ).encode("utf-8")


def canonical_key(config: Mapping) -> str:
    """SHA-256 hex digest of the canonical config blob."""
    return hashlib.sha256(canonical_blob(config)).hexdigest()


def derived_seed(tag: str, *configs: Mapping) -> int:
    """A stable 31-bit seed from canonical config content.

    Seeds depend only on *what* is generated, never on scheduling, so
    every backend and every resumed run draws identical streams; ``tag``
    separates the streams one config feeds (dataset draw, weight init).
    """
    blob = canonical_blob({"tag": tag, "configs": list(configs)})
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") % (2**31)


class ArtifactCache:
    """Content-addressed, size-bounded, checksummed artifact store."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        max_bytes: Optional[int] = None,
        fsync: bool = True,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.fsync = fsync
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        registry = get_registry()
        self._m_requests = registry.counter(
            "compute_cache_requests_total", "cache lookups by outcome"
        )
        self._m_evictions = registry.counter(
            "compute_cache_evictions_total", "entries evicted by the LRU bound"
        )
        self._m_corrupt = registry.counter(
            "compute_cache_corrupt_total", "entries quarantined on failed verify"
        )
        self._m_bytes = registry.gauge(
            "compute_cache_bytes", "total bytes of live cache entries"
        )

    # -- paths ---------------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_ENTRY_SUFFIX}"

    def _entries(self) -> List[Path]:
        return sorted(self.root.glob(f"*{_ENTRY_SUFFIX}"))

    # -- core get/put --------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Dict[str, np.ndarray], dict]]:
        """Load and verify the entry for ``key``; None on miss.

        A corrupt entry is quarantined and reported as a miss, so the
        caller's regenerate-then-put path heals the cache in place.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.misses += 1
            self._m_requests.inc(outcome="miss")
            return None
        try:
            payload = unwrap(blob, source=str(path))
            arrays, meta = self._decode(payload)
        except (StorageError, ValueError, KeyError) as error:
            self._quarantine(path, error)
            self.misses += 1
            self._m_requests.inc(outcome="corrupt")
            return None
        os.utime(path)  # bump LRU recency
        self.hits += 1
        self._m_requests.inc(outcome="hit")
        return arrays, meta

    def put(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> Path:
        """Atomically publish an enveloped entry for ``key``; then evict."""
        if not arrays:
            raise ValueError("arrays must be non-empty")
        if _META_KEY in arrays:
            raise ValueError(f"array name {_META_KEY!r} is reserved")
        path = self.path_for(key)
        payload = self._encode(arrays, meta or {})
        atomic_write_bytes(path, wrap(payload), fsync=self.fsync)
        self._evict(keep=path)
        self._m_bytes.set(self.total_bytes())
        return path

    def get_or_create(
        self,
        config: Mapping,
        producer: Callable[[], Mapping[str, np.ndarray]],
        meta: Optional[dict] = None,
    ) -> Tuple[Dict[str, np.ndarray], str, bool]:
        """The main API: ``(arrays, key, hit)`` for a generating config.

        On a miss (or a quarantined corrupt entry) ``producer()`` runs and
        its arrays are stored under the config's canonical key.
        """
        key = canonical_key(config)
        cached = self.get(key)
        if cached is not None:
            return cached[0], key, True
        arrays = {name: np.asarray(value) for name, value in producer().items()}
        entry_meta = {"config": _jsonable(config)}
        if meta:
            entry_meta.update(meta)
        self.put(key, arrays, entry_meta)
        return arrays, key, False

    def get_or_create_json(
        self,
        config: Mapping,
        producer: Callable[[], dict],
        meta: Optional[dict] = None,
    ) -> Tuple[dict, str, bool]:
        """:meth:`get_or_create` for small JSON payloads (scalar cells).

        Campaign cells (a drift-matrix MAE, a sweep score) are dicts, not
        arrays; they ride the same enveloped entry format as a uint8 JSON
        blob, so they get verify-on-read, quarantine-and-regenerate and
        LRU bounding for free.  Returns ``(payload, key, hit)``.
        """

        def produce_arrays() -> Dict[str, np.ndarray]:
            payload = producer()
            if not isinstance(payload, dict):
                raise TypeError(
                    f"JSON cell producer must return a dict, "
                    f"got {type(payload).__name__}"
                )
            blob = json.dumps(
                payload, sort_keys=True, default=_canonical_default
            ).encode("utf-8")
            return {"__json__": np.frombuffer(blob, dtype=np.uint8)}

        arrays, key, hit = self.get_or_create(
            config, produce_arrays, meta=meta
        )
        try:
            payload = json.loads(bytes(arrays["__json__"].tobytes()))
        except (KeyError, ValueError) as error:
            # A verified entry that is not a JSON cell (key collision with
            # an array entry): treat as corrupt, heal by regenerating.
            self._quarantine(self.path_for(key), error)
            arrays, key, hit = self.get_or_create(
                config, produce_arrays, meta=meta
            )
            payload = json.loads(bytes(arrays["__json__"].tobytes()))
        return payload, key, hit

    # -- maintenance ---------------------------------------------------------

    def verify(self) -> Dict[str, str]:
        """Check every entry's envelope; quarantine failures.

        Returns ``{key: "ok" | "corrupt: <reason>"}``.
        """
        report: Dict[str, str] = {}
        for path in self._entries():
            key = path.name[: -len(_ENTRY_SUFFIX)]
            try:
                with open(path, "rb") as handle:
                    payload = unwrap(handle.read(), source=str(path))
                self._decode(payload)
                report[key] = "ok"
            except (StorageError, ValueError, KeyError) as error:
                self._quarantine(path, error)
                report[key] = f"corrupt: {error}"
        self._m_bytes.set(self.total_bytes())
        return report

    def clear(self) -> int:
        """Remove every live entry (quarantine is kept); returns the count."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        self._m_bytes.set(0)
        return removed

    def entries(self) -> List[Dict[str, object]]:
        """Live entries as ``{key, bytes, mtime}`` rows, oldest first."""
        rows = []
        for path in self._entries():
            stat = path.stat()
            rows.append(
                {
                    "key": path.name[: -len(_ENTRY_SUFFIX)],
                    "bytes": stat.st_size,
                    "mtime": stat.st_mtime,
                }
            )
        rows.sort(key=lambda row: row["mtime"])
        return rows

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._entries())

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "entries": len(self._entries()),
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": (
                len(list(self.quarantine_dir.iterdir()))
                if self.quarantine_dir.is_dir()
                else 0
            ),
        }

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _encode(arrays: Mapping[str, np.ndarray], meta: dict) -> bytes:
        buffer = io.BytesIO()
        meta_blob = np.frombuffer(
            json.dumps(meta, default=_canonical_default).encode("utf-8"),
            dtype=np.uint8,
        )
        np.savez(buffer, **{_META_KEY: meta_blob}, **dict(arrays))
        return buffer.getvalue()

    @staticmethod
    def _decode(payload: bytes) -> Tuple[Dict[str, np.ndarray], dict]:
        with np.load(io.BytesIO(payload)) as data:
            meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
            arrays = {
                name: data[name] for name in data.files if name != _META_KEY
            }
        return arrays, meta

    def _quarantine(self, path: Path, error: Exception) -> None:
        self.corrupt += 1
        self._m_corrupt.inc()
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / path.name
        try:
            os.replace(path, target)
        except FileNotFoundError:
            pass

    def _evict(self, keep: Path) -> None:
        if self.max_bytes is None:
            return
        rows = [(path, path.stat()) for path in self._entries()]
        total = sum(stat.st_size for _, stat in rows)
        rows.sort(key=lambda item: item[1].st_mtime)
        for path, stat in rows:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            path.unlink()
            total -= stat.st_size
            self.evictions += 1
            self._m_evictions.inc()


def get_or_compute(
    cache: Optional[ArtifactCache],
    config: Mapping,
    producer: Callable[[], Mapping[str, np.ndarray]],
) -> Tuple[Dict[str, np.ndarray], str, bool]:
    """:meth:`ArtifactCache.get_or_create` that also takes no cache.

    ``cache=None`` runs ``producer()`` directly and reports ``hit=False``;
    the key is the config's canonical key either way.
    """
    if cache is None:
        return dict(producer()), canonical_key(config), False
    return cache.get_or_create(config, producer)


def get_or_compute_row(
    cache: Optional[ArtifactCache],
    config: Mapping,
    producer: Callable[[], dict],
) -> dict:
    """One cell's JSON result row, tagged with where it came from.

    The row gains ``cache_hit`` and, when cached, ``cache_key``;
    ``cache=None`` computes it directly.
    """
    if cache is None:
        return {**producer(), "cache_hit": False}
    row, key, hit = cache.get_or_create_json(config, producer)
    return {**row, "cache_key": key, "cache_hit": hit}


def _jsonable(config: Mapping) -> dict:
    """A JSON-round-trippable copy of a config (for entry metadata)."""
    return json.loads(json.dumps(dict(config), default=_canonical_default))
