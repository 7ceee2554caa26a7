"""Checksummed archives, fsync'd atomic writes and the quarantine rule.

The paper's Tool 4 leans on a provenance database and on trained models
that outlive the process that wrote them.  Bytes on disk are only trustworthy
if a reader can *prove* they are the bytes the writer meant.  Durable
state takes exactly two forms: state files are *archives* (this module)
and append logs are journals (:mod:`repro.storage.journal`).

An archive is an ``.npz`` of named arrays plus JSON documents, each
document stored as a uint8 entry ``__<name>__``
(:func:`write_archive`/:func:`read_archive`), framed in a self-describing
envelope — magic, format version, payload length and a SHA-256 digest
over the payload — and streamed through the file so neither side holds
a copy of the payload.  Models, cache entries, frozen plans, CLI
datasets and the document-store snapshot are all archives.  Every file
is published by one crash-safe path (temp file, flush, fsync, rename,
directory fsync); :func:`atomic_write_bytes` is that path for raw bytes
such as JSON reports and manifests.  Files that fail verification are
moved aside by the one :func:`quarantine` rule, which never overwrites
an earlier copy.

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

import errno
import hashlib
import json
import os
import re
import struct
import zipfile
from typing import (
    BinaryIO, Callable, Dict, Mapping, Optional, Tuple, TypeVar, Union,
)

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
_T = TypeVar("_T")


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

# Files are hashed and verified this many bytes at a time.
_CHUNK = 1 << 20


def _check_header(header: bytes, where: str) -> Tuple[int, bytes]:
    """The ``(length, digest)`` a header promises; typed error otherwise."""
    if len(header) < HEADER_SIZE:
        raise CorruptArtifactError(
            f"envelope truncated{where}: {len(header)} bytes, "
            f"header alone is {HEADER_SIZE}"
        )
    magic, version, length, digest = _HEADER.unpack(header[:HEADER_SIZE])
    if magic != MAGIC:
        raise CorruptArtifactError(f"bad magic {magic!r}{where}")
    if version != FORMAT_VERSION:
        raise SchemaVersionError(
            f"unsupported envelope format version {version}{where} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return length, digest


def _check_payload(
    length: int, digest: bytes, found: int, actual: bytes, where: str
) -> None:
    """Compare a payload's byte count and SHA-256 with its header's."""
    if found != length:
        raise CorruptArtifactError(
            f"payload truncated{where}: header promises {length} bytes, "
            f"found {found}"
        )
    if actual != digest:
        raise CorruptArtifactError(f"payload checksum mismatch{where}")


def _digest_to_end(handle) -> Tuple[int, bytes]:
    """Byte count and SHA-256 of ``handle`` from its position to EOF,
    read ``_CHUNK`` bytes at a time into one reused buffer."""
    hasher = hashlib.sha256()
    chunk = bytearray(_CHUNK)
    view = memoryview(chunk)
    total = 0
    while True:
        count = handle.readinto(chunk)
        if not count:
            return total, hasher.digest()
        hasher.update(view[:count])
        total += count


def wrap(payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Frame ``payload`` in a checksummed envelope, in memory.

    The reference framing: a :func:`write_archive` file's bytes are
    ``wrap`` over the same ``.npz`` saved to memory.
    """
    payload = bytes(payload)
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, int(version), len(payload), digest) + payload


def _verify(handle, where: str) -> int:
    """Check the envelope of a file opened at offset 0 in one chunked
    pass; returns the payload length.  The payload is never held."""
    length, digest = _check_header(handle.read(HEADER_SIZE), where)
    found, actual = _digest_to_end(handle)
    _check_payload(length, digest, found, actual, where)
    return length


class _Window:
    """The file ``handle`` seen from byte ``offset`` on, as its own file.

    zipfile records and seeks to absolute positions, so an ``.npz``
    written or read through a window at the end of the envelope header
    has the same bytes as one in a file of its own.  A
    seek before the window raises ``OSError``, as it would before the
    start of a real file.
    """

    def __init__(self, handle, offset: int):
        self._handle = handle
        self._offset = offset

    def tell(self) -> int:
        return self._handle.tell() - self._offset

    def seek(self, position: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_SET:
            position += self._offset
        else:
            position += self._handle.seek(0, whence)
        if position < self._offset:
            raise OSError(errno.EINVAL, "seek before the start of the window")
        return self._handle.seek(position) - self._offset

    def seekable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        return self._handle.read(size)

    def write(self, data) -> int:
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()


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


def _create_temp(directory: str) -> Tuple[int, str]:
    """Open a new, randomly named temp file in ``directory``.

    Mode 0666 goes through the kernel, which applies the process umask,
    so the published file gets the permissions a plain ``open()`` would
    give it without touching the umask other threads see.
    """
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def _publish(
    path: Union[str, os.PathLike], fill: Callable[[BinaryIO], _T], fsync: bool
) -> _T:
    """Publish the bytes ``fill(handle)`` writes at ``path``, all-or-nothing.

    ``fill`` writes the whole file through ``handle`` (readable and
    seekable, at offset 0).  Then: flush, fsync, rename over ``path``,
    fsync the directory — a crash at any point leaves either the
    previous complete file or the new one, never a mixture.
    ``fsync=False`` drops both durability barriers, never atomicity.
    Returns what ``fill`` returned.

    Every fault-injector hook is consulted here.  A torn write truncates
    the filled temp file at the injector's offset and raises
    :class:`SimulatedCrash`, so its debris is the first bytes of the
    file that would have been published.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    injector = _injector
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "r+b") as handle:
            result = fill(handle)
            handle.flush()
            if injector is not None:
                size = os.fstat(handle.fileno()).st_size
                cut = injector.torn_write_offset(path, size)
                if cut is not None:
                    handle.truncate(cut)
                    raise SimulatedCrash(
                        f"torn write: process killed mid-save of {path}"
                    )
            if fsync and not (injector is not None and injector.skip_fsync(path)):
                os.fsync(handle.fileno())
        if injector is not None and injector.skip_rename(tmp, path):
            # Lost rename: the write happened but never got published —
            # readers keep seeing the previous version (stale but intact).
            os.remove(tmp)
            return result
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
    return result


def atomic_write_bytes(
    path: Union[str, os.PathLike], data: bytes, fsync: bool = True
) -> str:
    """Publish ``data`` at ``path`` all-or-nothing (see :func:`_publish`).

    ``fsync=False`` trades the durability barrier for speed (atomicity is
    preserved either way).
    """
    _publish(path, lambda handle: handle.write(data), fsync)
    return os.fspath(path)


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

    The ``.npz`` streams straight into the temp file behind a zeroed
    header.  zipfile seeks back to patch each member's local header, so
    the payload is hashed afterwards, re-read from the file in chunks,
    and the real header is written last.  The file's bytes are
    ``wrap(<the same npz saved to memory>)``; no copy of the payload is
    held.
    """
    entries: Dict[str, np.ndarray] = {}
    for name, doc in docs.items():
        blob = json.dumps(doc, sort_keys=True, default=_encode_doc)
        entries[f"__{name}__"] = np.frombuffer(blob.encode("utf-8"), np.uint8)
    for name, array in arrays.items():
        if _DOC_NAME.match(name):
            raise ValueError(f"array name {name!r} is reserved for documents")
        entries[name] = array

    def fill(handle: BinaryIO) -> int:
        handle.write(bytes(HEADER_SIZE))
        np.savez(_Window(handle, HEADER_SIZE), **entries)
        handle.seek(HEADER_SIZE)
        length, digest = _digest_to_end(handle)
        handle.seek(0)
        handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, length, digest))
        return length

    return _publish(path, fill, fsync)


def read_archive(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Verify and decode a :func:`write_archive` file: ``(arrays, docs)``.

    Damage anywhere — envelope, zip container, array headers or a JSON
    document — raises :class:`CorruptArtifactError`; an envelope of
    another format version raises :class:`SchemaVersionError`.

    One chunked pass verifies the envelope, then ``np.load`` parses the
    payload through the same descriptor.  The open descriptor pins the
    inode and artifacts are only published by rename, so the bytes
    parsed are the bytes verified, and only the arrays themselves are
    held.
    """
    path = os.fspath(path)
    arrays: Dict[str, np.ndarray] = {}
    docs: Dict[str, object] = {}
    with open(path, "rb") as handle:
        _verify(handle, f" in {path}")
        try:
            handle.seek(HEADER_SIZE)
            archive = np.load(_Window(handle, HEADER_SIZE), allow_pickle=False)
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
        except (
            ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile
        ) as error:
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
