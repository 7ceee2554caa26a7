"""Content-addressed artifact cache for deterministically generated data.

Every sweep and bench in this repo regenerates its simulated datasets from
scratch, even though the generator is a pure function of (simulator
characteristics, compound set, n, seed, normalization).  This module keys
artifacts by a canonical SHA-256 over exactly that generating config and
stores them as :mod:`repro.storage.integrity` archives (checksummed
envelopes of named arrays plus a ``meta`` document, and a ``json``
document for a JSON cell), so a repeat generation is a verified read
instead of a re-render.

Guarantees:

* **Content addressing** — :func:`canonical_key` serializes the config to
  canonical JSON (sorted keys, compact separators, tuples as lists, numpy
  scalars coerced) and hashes it; semantically equal configs collide on
  purpose, any parameter change misses.
* **Verify-on-read** — entries are envelope-wrapped
  (magic + version + length + SHA-256); a corrupt entry is *quarantined*
  (moved aside for post-mortem, never silently deleted or overwritten),
  counted, and treated as a miss so the caller regenerates.
* **Observability** — hit/miss/corrupt counters and a byte-size gauge on
  the global registry, mirrored in per-instance :meth:`stats`.

Nothing is evicted: an entry lives until :meth:`ArtifactCache.clear`, so a
finished training topology or campaign cell is never silently lost.

Seeded cells draw every stream from :func:`derived_seed` and cache through
:func:`get_or_compute` / :func:`get_or_compute_row` (``cache=None`` computes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.observability.runtime import get_registry
from repro.storage.integrity import (
    CorruptArtifactError,
    StorageError,
    quarantine,
    read_archive,
    write_archive,
)

__all__ = [
    "CACHE_FORMAT_VERSION", "canonical_blob", "canonical_key", "derived_seed",
    "ArtifactCache", "get_or_compute", "get_or_compute_row", "read_row",
]

# Bump when the on-disk entry layout (not the envelope) changes; part of
# the key, so old-format entries simply miss instead of misparsing.
CACHE_FORMAT_VERSION = 1

_ENTRY_SUFFIX = ".npz.env"


def _canonical_default(value):
    """Coerce non-JSON values deterministically (numpy, sets, dataclasses).

    A dataclass instance (a frozen spec, scenario or cell) encodes as
    ``dataclasses.asdict`` — its canonical form — so specs key directly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
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

    Key order, tuple-vs-list, numpy scalar types and a dataclass versus
    its ``asdict`` never change the bytes; any semantic difference does.
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
    """Content-addressed, checksummed artifact store."""

    def __init__(self, root: Union[str, os.PathLike], fsync: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        registry = get_registry()
        self._m_requests = registry.counter(
            "compute_cache_requests_total", "cache lookups by outcome"
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

    def _read(
        self, key: str, doc: str = "meta"
    ) -> Optional[Tuple[Dict[str, np.ndarray], dict]]:
        """``(arrays, docs)`` of the verified entry for ``key``; None on miss.

        A corrupt entry, or one without the ``doc`` document (a JSON cell
        key colliding with an array entry), is quarantined and reported
        as a miss, so the caller's regenerate-then-put path heals the
        cache in place.
        """
        path = self.path_for(key)
        try:
            arrays, docs = _read_entry(path, doc)
        except FileNotFoundError:
            self.misses += 1
            self._m_requests.inc(outcome="miss")
            return None
        except StorageError:
            self._quarantine(path)
            self.misses += 1
            self._m_requests.inc(outcome="corrupt")
            return None
        self.hits += 1
        self._m_requests.inc(outcome="hit")
        return arrays, docs

    def _write(
        self, key: str, arrays: Mapping[str, np.ndarray], docs: Dict[str, dict]
    ) -> Path:
        path = self.path_for(key)
        write_archive(path, arrays, docs, fsync=self.fsync)
        self._m_bytes.set(self.total_bytes())
        return path

    def get(self, key: str) -> Optional[Tuple[Dict[str, np.ndarray], dict]]:
        """Load and verify the entry for ``key``: ``(arrays, meta)``, or
        None on a miss (a corrupt entry is quarantined and misses)."""
        entry = self._read(key)
        return None if entry is None else (entry[0], entry[1]["meta"])

    def get_json(self, key: str) -> Optional[dict]:
        """The verified JSON payload stored under ``key``, or None on a miss
        (a corrupt entry is quarantined and misses)."""
        entry = self._read(key, doc="json")
        return None if entry is None else entry[1]["json"]

    def put(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> Path:
        """Atomically publish an enveloped entry for ``key``."""
        if not arrays:
            raise ValueError("arrays must be non-empty")
        return self._write(key, arrays, {"meta": meta or {}})

    # -- maintenance ---------------------------------------------------------

    def verify(self) -> Dict[str, str]:
        """Check every entry's envelope; quarantine failures.

        Returns ``{key: "ok" | "corrupt: <reason>"}``.
        """
        report: Dict[str, str] = {}
        for path in self._entries():
            key = path.name[: -len(_ENTRY_SUFFIX)]
            try:
                _read_entry(path)
                report[key] = "ok"
            except StorageError as error:
                self._quarantine(path)
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
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "quarantined": (
                len(list(self.quarantine_dir.iterdir()))
                if self.quarantine_dir.is_dir()
                else 0
            ),
        }

    # -- internals -----------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        self.corrupt += 1
        self._m_corrupt.inc()
        quarantine(path, self.quarantine_dir)


def _read_entry(
    path: Path, doc: str = "meta"
) -> Tuple[Dict[str, np.ndarray], Dict[str, dict]]:
    """A verified entry's ``(arrays, docs)``; one without ``doc`` is corrupt."""
    arrays, docs = read_archive(path)
    if doc not in docs:
        raise CorruptArtifactError(f"cache entry {path} has no {doc!r} document")
    return arrays, docs


def get_or_compute(
    cache: Optional[ArtifactCache],
    config: Mapping,
    producer: Callable[[], Mapping[str, np.ndarray]],
) -> Tuple[Dict[str, np.ndarray], str, bool]:
    """``(arrays, key, hit)`` for a generating config.

    On a miss (or a quarantined corrupt entry) ``producer()`` runs and
    its arrays are stored under the config's canonical key.
    ``cache=None`` runs ``producer()`` directly and reports ``hit=False``;
    the key is the config's canonical key either way.
    """
    key = canonical_key(config)
    if cache is None:
        return dict(producer()), key, False
    cached = cache.get(key)
    if cached is not None:
        return cached[0], key, True
    arrays = {name: np.asarray(value) for name, value in producer().items()}
    cache.put(key, arrays, {"config": _jsonable(config)})
    return arrays, key, False


def get_or_compute_row(
    cache: Optional[ArtifactCache],
    config: Mapping,
    producer: Callable[[], dict],
) -> dict:
    """One cell's JSON result row, tagged with where it came from.

    Campaign cells (a drift-matrix MAE, a sweep score) are dicts, not
    arrays; they ride the same entry format as a ``json`` document next
    to ``meta``, so they get verify-on-read and quarantine-and-regenerate
    for free.  A fresh payload is returned as it reads back; a producer
    that returns anything but a dict raises ``TypeError``.

    The row gains ``cache_hit`` and, when cached, ``cache_key``;
    ``cache=None`` computes it directly.
    """
    if cache is None:
        return {**producer(), "cache_hit": False}
    key = canonical_key(config)
    cached = read_row(cache, key)
    if cached is not None:
        return cached
    row = producer()
    if not isinstance(row, dict):
        raise TypeError(
            f"JSON cell producer must return a dict, "
            f"got {type(row).__name__}"
        )
    row = _jsonable(row)
    cache._write(key, {}, {"meta": {"config": _jsonable(config)}, "json": row})
    return {**row, "cache_key": key, "cache_hit": False}


def read_row(cache: ArtifactCache, key: str) -> Optional[dict]:
    """The verified row under ``key`` tagged as a hit, or None: the one
    read :func:`get_or_compute_row` and a grid's parent-side scan share."""
    row = cache.get_json(key)
    return None if row is None else {**row, "cache_key": key, "cache_hit": True}


def _jsonable(value: Mapping) -> dict:
    """``value`` as it reads back from JSON (keys sorted, numpy coerced)."""
    return json.loads(
        json.dumps(value, sort_keys=True, default=_canonical_default)
    )
