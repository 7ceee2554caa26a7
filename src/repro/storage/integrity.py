"""Checksummed artifact envelopes, array archives and fsync'd atomic writes.

The paper's Tool 4 leans on a provenance database and on trained models
that outlive the process that wrote them.  Bytes on disk are only trustworthy
if a reader can *prove* they are the bytes the writer meant: this leaf
module defines a self-describing envelope format — magic, format version,
payload length and a SHA-256 digest over the payload — plus crash-safe
write primitives (temp file, flush, fsync, rename, directory fsync) that
every durable artifact in the repo goes through.

Models, cache entries and frozen plans share one payload
inside that envelope, the *archive*: an ``.npz`` of named arrays plus
JSON documents, each stored as a uint8 entry ``__<name>__``
(:func:`write_archive`/:func:`read_archive`).  Files that fail
verification are moved aside by the one :func:`quarantine` rule, which
never overwrites an earlier copy.

Error taxonomy::

    StorageError
    ├── CorruptArtifactError   # bad magic, truncation, checksum mismatch,
    │                          # unreadable archive payload
    └── SchemaVersionError     # well-formed envelope, unsupported version

The module also hosts the storage fault hook: a
:class:`~repro.reliability.storage_faults.StorageFaultInjector` installs
itself here (see :func:`install_injector`) and the write primitives
consult it at each step, so chaos tests can tear writes at a byte offset,
skip the fsync/rename, flip bits or vanish files without monkeypatching.
This module is a leaf: it imports only the standard library and NumPy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import struct
import tempfile
import zipfile
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "StorageError",
    "CorruptArtifactError",
    "SchemaVersionError",
    "SimulatedCrash",
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "wrap",
    "unwrap",
    "write_envelope",
    "read_envelope",
    "verify_envelope",
    "write_archive",
    "read_archive",
    "quarantine",
    "atomic_write_bytes",
    "fsync_directory",
    "install_injector",
    "clear_injector",
    "active_injector",
]

MAGIC = b"REPROENV"
FORMAT_VERSION = 1
# magic (8s) | format version (u32) | payload length (u64) | sha256 (32s)
_HEADER = struct.Struct("<8sIQ32s")
HEADER_SIZE = _HEADER.size
# Archive entries named like this hold JSON documents, not arrays.
_DOC_NAME = re.compile(r"^__(.+)__$")


class StorageError(Exception):
    """Base class for durable-state failures."""


class CorruptArtifactError(StorageError):
    """The bytes on disk are not the bytes the writer committed."""


class SchemaVersionError(StorageError):
    """A well-formed envelope written by an incompatible format version."""


class SimulatedCrash(BaseException):
    """Raised by a fault injector to emulate ``kill -9`` mid-write.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    recovery code cannot accidentally swallow the simulated kill, exactly
    like a real SIGKILL cannot be caught.  The atomic writers deliberately
    leave their temp-file debris behind on a simulated crash — recovery
    must ignore it, just as it must ignore debris from a real crash.
    """


# -- fault hook --------------------------------------------------------------

_injector = None


def install_injector(injector) -> None:
    """Route subsequent writes through ``injector`` (chaos testing)."""
    global _injector
    if _injector is not None:
        raise RuntimeError("a storage fault injector is already installed")
    _injector = injector


def clear_injector() -> None:
    global _injector
    _injector = None


def active_injector():
    """The currently installed fault injector, or None."""
    return _injector


# -- envelope format ---------------------------------------------------------

def wrap(payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Frame ``payload`` in a checksummed envelope."""
    payload = bytes(payload)
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, int(version), len(payload), digest) + payload


def unwrap(blob: bytes, source: Optional[str] = None) -> bytes:
    """Verify an envelope and return its payload.

    Raises :class:`CorruptArtifactError` on a short/foreign/truncated blob
    or a checksum mismatch, :class:`SchemaVersionError` on an unsupported
    format version.
    """
    where = f" in {source}" if source else ""
    if len(blob) < HEADER_SIZE:
        raise CorruptArtifactError(
            f"envelope truncated{where}: {len(blob)} bytes, "
            f"header alone is {HEADER_SIZE}"
        )
    magic, version, length, digest = _HEADER.unpack(blob[:HEADER_SIZE])
    if magic != MAGIC:
        raise CorruptArtifactError(f"bad magic {magic!r}{where}")
    if version != FORMAT_VERSION:
        raise SchemaVersionError(
            f"unsupported envelope format version {version}{where} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    payload = blob[HEADER_SIZE:]
    if len(payload) != length:
        raise CorruptArtifactError(
            f"payload truncated{where}: header promises {length} bytes, "
            f"found {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArtifactError(f"payload checksum mismatch{where}")
    return payload


def is_envelope(blob: bytes) -> bool:
    """True if ``blob`` starts with the envelope magic."""
    return blob[: len(MAGIC)] == MAGIC


# -- crash-safe writes -------------------------------------------------------

def fsync_directory(directory: Union[str, os.PathLike]) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    fd = os.open(os.fspath(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename is still atomic
    finally:
        os.close(fd)


def _apply_umask_mode(tmp: str) -> None:
    """Give a mkstemp file (0600) the permissions a plain open() would."""
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)


def atomic_write_bytes(
    path: Union[str, os.PathLike], data: bytes, fsync: bool = True
) -> str:
    """Publish ``data`` at ``path`` all-or-nothing.

    Writes to a temp file in the target directory, flushes, fsyncs, then
    renames over ``path`` and fsyncs the directory — a crash at any point
    leaves either the previous complete file or the new one, never a
    mixture.  ``fsync=False`` trades the durability barrier for speed
    (atomicity is preserved either way).
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    injector = _injector
    if injector is not None:
        data = injector.filter_write(path, data)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync and not (injector is not None and injector.skip_fsync(path)):
                os.fsync(handle.fileno())
        if injector is not None:
            injector.after_write(path)  # may raise SimulatedCrash
        _apply_umask_mode(tmp)
        if injector is not None and injector.skip_rename(tmp, path):
            # Lost rename: the write happened but never got published —
            # readers keep seeing the previous version (stale but intact).
            os.remove(tmp)
            return path
        os.replace(tmp, path)
        if fsync and not (injector is not None and injector.skip_fsync(path)):
            fsync_directory(directory)
        if injector is not None:
            injector.after_publish(path)
    except SimulatedCrash:
        # A real SIGKILL leaves the temp file behind; so do we.
        raise
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def write_envelope(
    path: Union[str, os.PathLike],
    payload: bytes,
    version: int = FORMAT_VERSION,
    fsync: bool = True,
) -> str:
    """Atomically publish ``payload`` wrapped in a checksummed envelope."""
    return atomic_write_bytes(path, wrap(payload, version=version), fsync=fsync)


def read_envelope(path: Union[str, os.PathLike]) -> bytes:
    """Read and verify an envelope file; returns the payload."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    return unwrap(blob, source=path)


def verify_envelope(path: Union[str, os.PathLike]) -> int:
    """Verify an envelope file without keeping the payload.

    Returns the payload size in bytes; raises the typed error otherwise.
    """
    return len(read_envelope(path))


# -- array archives ----------------------------------------------------------

def _encode_doc(value):
    """JSON fallback: NumPy scalars and arrays become Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def write_archive(
    path: Union[str, os.PathLike],
    arrays: Mapping[str, np.ndarray],
    docs: Mapping[str, object],
    fsync: bool = True,
) -> int:
    """Atomically publish named ``arrays`` and JSON ``docs`` in one envelope.

    The payload is an ``.npz``; each document is stored as a uint8 entry
    ``__<name>__`` next to the arrays, so array names of that form are
    reserved and refused.  Returns the payload size in bytes.
    """
    entries: Dict[str, np.ndarray] = {}
    for name, doc in docs.items():
        blob = json.dumps(doc, sort_keys=True, default=_encode_doc)
        entries[f"__{name}__"] = np.frombuffer(blob.encode("utf-8"), np.uint8)
    for name, array in arrays.items():
        if _DOC_NAME.match(name):
            raise ValueError(f"array name {name!r} is reserved for documents")
        entries[name] = array
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    payload = buffer.getvalue()
    write_envelope(path, payload, fsync=fsync)
    return len(payload)


def read_archive(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Verify and decode a :func:`write_archive` file: ``(arrays, docs)``.

    Damage anywhere — envelope, zip container, array headers or a JSON
    document — raises :class:`CorruptArtifactError`; an envelope of
    another format version raises :class:`SchemaVersionError`.
    """
    path = os.fspath(path)
    payload = read_envelope(path)
    arrays: Dict[str, np.ndarray] = {}
    docs: Dict[str, object] = {}
    try:
        archive = np.load(io.BytesIO(payload), allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("payload is not an npz archive")
        with archive:
            for name in archive.files:
                match = _DOC_NAME.match(name)
                if match:
                    text = archive[name].tobytes().decode("utf-8")
                    docs[match.group(1)] = json.loads(text)
                else:
                    arrays[name] = archive[name]
    except (ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile) as error:
        raise CorruptArtifactError(
            f"unreadable archive payload in {path}: "
            f"{type(error).__name__}: {error}"
        ) from error
    return arrays, docs


def quarantine(
    path: Union[str, os.PathLike], directory: Union[str, os.PathLike]
) -> Optional[str]:
    """Move ``path`` into ``directory`` for post-mortem; never overwrites.

    A name already taken in ``directory`` gets ``.1``, ``.2``, ... appended,
    so a file corrupted twice leaves two copies.  Returns the new path, or
    None when ``path`` is already gone.
    """
    path = os.fspath(path)
    os.makedirs(directory, exist_ok=True)
    base = os.path.basename(path)
    destination = os.path.join(directory, base)
    suffix = 0
    while os.path.exists(destination):
        suffix += 1
        destination = os.path.join(directory, f"{base}.{suffix}")
    try:
        os.replace(path, destination)
    except FileNotFoundError:
        return None
    return destination
