"""Shared-memory dataset handoff for the process backend.

The profiled failure mode of the old executor was payload transfer: every
task of a sweep carried its own pickled copy of the training arrays
through the process pool's pipe, so a 4-topology sweep shipped the same
spectra four times and the workers spent their warm-up deserializing
instead of computing (the process backend ran at 0.63x the serial
speed; the ``ms_campaign`` workload of ``benchmarks/e2e`` measures the
executor's phases as ``compute.*``).  This module replaces the per-task
copy with a publish-once / map-many protocol:

* :func:`share_array` writes an array once, as a plain ``.npy`` file named
  by the SHA-256 of its bytes (publish is an atomic rename, concurrent
  publishers of the same content collide harmlessly on the same name);
* the returned :class:`SharedArrayRef` is a tiny picklable handle (path,
  dtype, shape) that rides the task payload instead of the array;
* :func:`resolve_refs` — called by the executor in the worker, right
  before the task function runs — swaps every handle for a *read-only
  memory map* of the published file, cached per process so N tasks on the
  same worker map the file exactly once.

``numpy.save``/``numpy.load`` round-trip bytes exactly, so a task fed a
resolved memory map computes the same floats as one fed the original
array — the executor's cross-backend byte-equality contract survives the
handoff.  The maps are deliberately read-only: a worker mutating shared
input would corrupt its siblings' view, so that mistake fails loudly.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

import numpy as np

__all__ = ["SharedArrayRef", "share_array", "share_arrays", "resolve_refs"]

# Per-process memo of resolved maps: entries are content-addressed and
# immutable, so a path can be mapped once and reused by every task the
# worker runs for the rest of its life.
_RESOLVED: Dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class SharedArrayRef:
    """A picklable handle to one published array (path + expected layout)."""

    path: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def share_array(
    array: np.ndarray, directory: Union[str, os.PathLike]
) -> SharedArrayRef:
    """Publish one array under ``directory``; returns its handle.

    The file name is the SHA-256 of (dtype, shape, bytes), so publishing
    the same content twice — from one process or several — is idempotent:
    the second publisher sees the file already present and skips the
    write.  Publication itself is write-to-temp + atomic rename, so a
    reader can never map a half-written file.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{digest.hexdigest()}.npy"
    if not path.exists():
        fd, tmp_name = tempfile.mkstemp(
            dir=str(directory), suffix=".npy.tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, array)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
    return SharedArrayRef(
        path=str(path), dtype=str(array.dtype), shape=tuple(array.shape)
    )


def share_arrays(
    arrays: Mapping[str, np.ndarray], directory: Union[str, os.PathLike]
) -> Dict[str, SharedArrayRef]:
    """Publish a named set of arrays; ``{name: handle}``."""
    return {
        name: share_array(np.asarray(array), directory)
        for name, array in arrays.items()
    }


def _load(ref: SharedArrayRef) -> np.ndarray:
    cached = _RESOLVED.get(ref.path)
    if cached is None:
        cached = np.load(ref.path, mmap_mode="r")
        if str(cached.dtype) != ref.dtype or tuple(cached.shape) != ref.shape:
            raise ValueError(
                f"shared array at {ref.path} is "
                f"{cached.dtype}{tuple(cached.shape)}, handle expects "
                f"{ref.dtype}{ref.shape}"
            )
        _RESOLVED[ref.path] = cached
    return cached


def resolve_refs(obj):
    """Recursively swap every :class:`SharedArrayRef` for its memory map.

    Walks dicts, lists and tuples (payload containers); every other value
    passes through untouched.  A payload with no handles comes back
    unchanged, so the serial and thread backends pay only the walk.
    """
    if isinstance(obj, SharedArrayRef):
        return _load(obj)
    if isinstance(obj, dict):
        return {key: resolve_refs(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(resolve_refs(value) for value in obj)
    return obj
