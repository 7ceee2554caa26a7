"""Storage-fault chaos: tear, flip, lose and vanish durable writes.

:mod:`repro.reliability.faults` corrupts what the *instrument* produces;
this module corrupts what the *disk* keeps.  A
:class:`StorageFaultInjector` installs itself into
:mod:`repro.storage.integrity` as a context manager, and every durable
write in the repo (model files, cache entries, document-store
snapshots, journal appends) consults it at each step of the
write-flush-fsync-rename protocol.  Fault classes:

* ``torn_write_at`` — an atomic write's temp file is cut to its first N
  bytes before a :class:`~repro.storage.integrity.SimulatedCrash`
  (kill -9 mid-write; temp debris is left behind, the target is not);
* ``torn_append_at`` — a journal append commits only its first N bytes
  before the crash (the classic torn tail);
* ``bit_flip`` — one bit of the published file flips after the rename
  (media corruption that only a checksum can catch);
* ``skip_fsync`` — the durability barrier silently does nothing;
* ``stale_rename`` — the temp file is written but the rename is lost, so
  readers keep seeing the previous version;
* ``vanish`` — the published file disappears right after the write.

Each armed fault fires at most ``times`` times, only on paths containing
``match``, and every firing is recorded in :attr:`events`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.storage.integrity import (
    SimulatedCrash,
    clear_injector,
    install_injector,
)

__all__ = ["StorageFaultEvent", "StorageFaultInjector", "bit_flip_file",
           "truncate_file"]


@dataclass(frozen=True)
class StorageFaultEvent:
    """One injected storage fault, for post-mortem analysis."""

    kind: str
    path: str
    detail: Dict[str, float] = field(default_factory=dict)


def bit_flip_file(path: str, seed: int = 0) -> int:
    """Flip one pseudo-random bit of ``path`` in place; returns the offset."""
    rng = np.random.default_rng(seed)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        raise ValueError(f"cannot bit-flip empty file {path}")
    offset = int(rng.integers(0, len(data)))
    data[offset] ^= 1 << int(rng.integers(0, 8))
    with open(path, "wb") as handle:
        handle.write(data)
    return offset


def truncate_file(path: str, keep_bytes: int) -> None:
    """Cut ``path`` down to its first ``keep_bytes`` bytes in place."""
    with open(path, "rb+") as handle:
        handle.truncate(max(int(keep_bytes), 0))


class StorageFaultInjector:
    """Context manager that corrupts durable writes deterministically.

    Example — tear the next cache entry 100 bytes in::

        with StorageFaultInjector(torn_write_at=100, match=".npz.env"):
            cache.put(key, arrays)       # "process" dies mid-write here
        assert cache.get(key) is None    # recovery: a miss, recompute

    A :class:`~repro.storage.integrity.SimulatedCrash` that propagates to
    the ``with`` boundary is absorbed there — the simulated process died,
    the test process carries on to exercise recovery.
    """

    def __init__(
        self,
        torn_write_at: Optional[int] = None,
        torn_append_at: Optional[int] = None,
        bit_flip: bool = False,
        skip_fsync: bool = False,
        stale_rename: bool = False,
        vanish: bool = False,
        match: str = "",
        times: int = 1,
        seed: int = 0,
    ):
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.torn_write_at = torn_write_at
        self.torn_append_at = torn_append_at
        self.bit_flip = bool(bit_flip)
        self.skip_fsync_fault = bool(skip_fsync)
        self.stale_rename = bool(stale_rename)
        self.vanish = bool(vanish)
        self.match = match
        self.seed = int(seed)
        self.events: List[StorageFaultEvent] = []
        self._remaining: Dict[str, int] = {
            kind: int(times)
            for kind in (
                "torn_write", "torn_append", "bit_flip", "skip_fsync",
                "stale_rename", "vanish",
            )
        }
        self._crash_after_append = False

    # -- arming --------------------------------------------------------------

    def _fire(self, kind: str, path: str) -> bool:
        if self.match and self.match not in path:
            return False
        if self._remaining[kind] < 1:
            return False
        self._remaining[kind] -= 1
        return True

    def _record(self, kind: str, path: str, **detail) -> None:
        self.events.append(StorageFaultEvent(kind, path, dict(detail)))

    @property
    def fault_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- integrity-module hook protocol --------------------------------------

    def torn_write_offset(self, path: str, size: int) -> Optional[int]:
        """Where to tear a filled ``size``-byte write to ``path``, or None.

        The writer truncates its temp file there and raises
        :class:`~repro.storage.integrity.SimulatedCrash`.
        """
        if self.torn_write_at is not None and self._fire("torn_write", path):
            cut = min(int(self.torn_write_at), size)
            self._record("torn_write", path, offset=cut, dropped=size - cut)
            return cut
        return None

    def filter_append(self, path: str, data: bytes) -> bytes:
        if self.torn_append_at is not None and self._fire("torn_append", path):
            cut = min(int(self.torn_append_at), len(data))
            self._record("torn_append", path, offset=cut, dropped=len(data) - cut)
            self._crash_after_append = True
            return data[:cut]
        return data

    def after_append(self, path: str) -> None:
        if self._crash_after_append:
            self._crash_after_append = False
            raise SimulatedCrash(f"torn append: process killed mid-append to {path}")

    def skip_fsync(self, path: str) -> bool:
        if self.skip_fsync_fault and self._fire("skip_fsync", path):
            self._record("skip_fsync", path)
            return True
        return False

    def skip_rename(self, tmp: str, target: str) -> bool:
        if self.stale_rename and self._fire("stale_rename", target):
            self._record("stale_rename", target)
            return True
        return False

    def after_publish(self, path: str) -> None:
        if self.bit_flip and self._fire("bit_flip", path):
            offset = bit_flip_file(path, seed=self.seed)
            self._record("bit_flip", path, offset=offset)
        if self.vanish and self._fire("vanish", path):
            os.remove(path)
            self._record("vanish", path)

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "StorageFaultInjector":
        install_injector(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        clear_injector()
        # A SimulatedCrash that reached the context boundary played its
        # role (the "process" died inside the block); don't re-raise it.
        return exc_info[0] is not None and issubclass(exc_info[0], SimulatedCrash)
