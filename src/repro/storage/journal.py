"""Append-only write-ahead journal with torn-tail recovery.

One record per line: ``<sha256-prefix> <json-payload>\n``.  A record is
*committed* once its full line (checksum, payload, newline) is on disk;
:meth:`Journal.replay` returns exactly the committed prefix and discards
the torn tail a crash mid-append leaves behind.  Appends are flushed and
fsynced before :meth:`Journal.append` returns, so a record the caller saw
acknowledged survives power loss.

The journal is the one durable form for append logs; state files are
archives (:mod:`repro.storage.integrity`).  It deliberately stays
line-oriented JSON: it can be inspected with ``grep`` during an
incident, and Python's ``json`` round-trips the NaN/Infinity floats that
provenance metadata legitimately contains.  NumPy values are encoded as
in an archive document (``tolist()``), so an ``np.int64`` replays as an
``int``; anything else that is not JSON raises ``TypeError`` before a
byte is written.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple, Union

from repro.observability.runtime import counter as _counter
from repro.observability.runtime import histogram as _histogram
from repro.storage.integrity import _encode_doc, active_injector

__all__ = ["Journal"]

_CHECKSUM_CHARS = 16  # hex chars of the sha256 prefix


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:_CHECKSUM_CHARS]


class Journal:
    """A checksummed append-only record log at one path."""

    def __init__(self, path: Union[str, os.PathLike], fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self._handle = None

    # -- lifecycle -----------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reset(self) -> None:
        """Drop every record (after a successful compaction)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes --------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record; returns only once it is committed.

        Each committed append counts into ``journal_appends_total`` and
        its full write+flush+fsync time into ``journal_append_seconds``.
        """
        with _histogram(
            "journal_append_seconds",
            "WAL append time including flush and fsync",
        ).time(fsync="on" if self.fsync else "off"):
            payload = json.dumps(
                record, ensure_ascii=False, default=_encode_doc
            ).encode("utf-8")
            line = _checksum(payload).encode("ascii") + b" " + payload + b"\n"
            injector = active_injector()
            if injector is not None:
                line = injector.filter_append(self.path, line)
            if self._handle is None:
                self._handle = open(self.path, "ab")
            self._handle.write(line)
            self._handle.flush()
            if self.fsync and not (
                injector is not None and injector.skip_fsync(self.path)
            ):
                os.fsync(self._handle.fileno())
        _counter("journal_appends_total", "committed WAL appends").inc()
        if injector is not None:
            injector.after_append(self.path)  # may raise SimulatedCrash

    # -- recovery ------------------------------------------------------------

    def replay(self) -> Tuple[List[dict], Dict[str, int]]:
        """All committed records plus recovery stats.

        Stops at the first record that is incomplete (no trailing newline)
        or fails its checksum — everything from that point on is the torn
        tail of an interrupted append and is discarded, never trusted.
        Stats: ``{"replayed": n, "discarded_records": k,
        "discarded_bytes": b}``.
        """
        # Read through any still-open append handle's view of the file.
        self.close()
        if not self.exists():
            return [], {"replayed": 0, "discarded_records": 0, "discarded_bytes": 0}
        with open(self.path, "rb") as handle:
            blob = handle.read()
        records: List[dict] = []
        offset = 0
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:
                break  # incomplete final line: torn append
            record = self._parse_line(blob[offset:newline])
            if record is None:
                break  # corrupt line: distrust it and everything after
            records.append(record)
            offset = newline + 1
        discarded = blob[offset:]
        return records, {
            "replayed": len(records),
            "discarded_records": 1 if discarded else 0,
            "discarded_bytes": len(discarded),
        }

    @staticmethod
    def _parse_line(line: bytes) -> Optional[dict]:
        if b" " not in line:
            return None
        checksum, payload = line.split(b" ", 1)
        if checksum.decode("ascii", "replace") != _checksum(payload):
            return None
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None
