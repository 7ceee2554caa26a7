"""A small embedded document store with Mongo-style queries.

Documents are JSON-serializable dicts.  Each insert assigns a unique
``_id``.  Queries support dotted paths and the operators ``$eq``, ``$ne``,
``$gt``, ``$gte``, ``$lt``, ``$lte``, ``$in`` and ``$exists``; a bare value
means ``$eq``.

The store is in-memory with optional durable persistence, in the two
forms :mod:`repro.storage` has: a journal for the log, an archive for the
state.  A store opened with a ``path`` is *journaled*: every mutation is
appended to a checksummed write-ahead journal (``<path>.journal``)
before it touches memory, so a mutation the journal refuses changes
nothing.  :meth:`DocumentStore.save`/:meth:`DocumentStore.compact`
publish the snapshot atomically (fsync + rename) as an archive holding
one ``store`` document, then reset the journal.  Reopening after a crash
replays every committed journal record on top of the last snapshot and
discards the torn tail of an interrupted append — at most the one
in-flight record is lost.  A file at the path that is not an archive is
refused with :class:`~repro.storage.integrity.CorruptArtifactError`; an
empty one is a new store.
"""

from __future__ import annotations

import copy
import os
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.observability.runtime import counter as _counter
from repro.observability.runtime import histogram as _histogram
from repro.storage.integrity import (
    CorruptArtifactError, read_archive, write_archive,
)
from repro.storage.journal import Journal

__all__ = ["Collection", "DocumentStore"]

_OPERATORS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$exists"}
_MISSING = object()


def _resolve_path(document: Mapping, path: str):
    """Follow a dotted path; returns _MISSING if any hop is absent."""
    value: Any = document
    for part in path.split("."):
        if isinstance(value, Mapping) and part in value:
            value = value[part]
        else:
            return _MISSING
    return value


def _match_condition(value, condition) -> bool:
    if isinstance(condition, Mapping) and any(k in _OPERATORS for k in condition):
        for op, operand in condition.items():
            if op == "$exists":
                if bool(operand) != (value is not _MISSING):
                    return False
                continue
            if value is _MISSING:
                return False
            if op == "$eq" and not value == operand:
                return False
            if op == "$ne" and not value != operand:
                return False
            if op == "$in" and value not in operand:
                return False
            try:
                if op == "$gt" and not value > operand:
                    return False
                if op == "$gte" and not value >= operand:
                    return False
                if op == "$lt" and not value < operand:
                    return False
                if op == "$lte" and not value <= operand:
                    return False
            except TypeError:
                return False
        return True
    return value is not _MISSING and value == condition


def _matches(document: Mapping, query: Mapping) -> bool:
    return all(
        _match_condition(_resolve_path(document, path), condition)
        for path, condition in query.items()
    )


class Collection:
    """A named set of documents."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[int, Dict] = {}
        self._next_id = 1
        # Set by a journaling DocumentStore; receives one WAL record per
        # mutation.  Standalone collections stay journal-free.
        self._recorder: Optional[Callable[[dict], None]] = None

    def _emit(self, record: dict) -> None:
        if self._recorder is not None:
            self._recorder(record)

    # -- writes ---------------------------------------------------------------

    def insert(self, document: Mapping) -> int:
        """Insert a deep copy of ``document``; returns the assigned ``_id``.

        Deep-copying isolates the store from later mutations of nested
        values in the caller's dict (and vice versa) — a shallow copy would
        let nested mutations silently corrupt stored provenance.
        """
        if not isinstance(document, Mapping):
            raise TypeError(f"documents must be mappings, got {type(document).__name__}")
        doc = copy.deepcopy(dict(document))
        if "_id" in doc:
            raise ValueError("documents must not carry a pre-set _id")
        doc_id = self._next_id
        doc["_id"] = doc_id
        self._emit({"op": "insert", "doc": doc})
        self._documents[doc_id] = doc
        self._next_id += 1
        return doc_id

    def insert_many(self, documents) -> List[int]:
        return [self.insert(doc) for doc in documents]

    def update_one(self, query: Mapping, changes: Mapping) -> bool:
        """Merge ``changes`` into the first matching document."""
        doc = self.find_one(query)
        if doc is None:
            return False
        if "_id" in changes:
            raise ValueError("_id cannot be updated")
        # Journal the resolved id, not the query: replay must not depend
        # on match order against documents inserted after this call.
        self._emit({"op": "update", "id": doc["_id"], "changes": dict(changes)})
        self._apply_update(doc["_id"], changes)
        return True

    def delete(self, query: Mapping) -> int:
        """Delete all matching documents; returns the count removed."""
        ids = [doc["_id"] for doc in self.find(query)]
        if ids:
            self._emit({"op": "delete", "ids": ids})
            self._apply_delete(ids)
        return len(ids)

    # -- applying journaled records (live writes and replay) -------------------

    def _apply_insert(self, doc: dict) -> None:
        doc = copy.deepcopy(dict(doc))
        doc_id = int(doc["_id"])
        self._documents[doc_id] = doc
        self._next_id = max(self._next_id, doc_id + 1)

    def _apply_update(self, doc_id: int, changes: Mapping) -> None:
        stored = self._documents.get(int(doc_id))
        if stored is None:
            return
        for key, value in changes.items():
            stored[key] = copy.deepcopy(value)

    def _apply_delete(self, ids) -> None:
        for doc_id in ids:
            self._documents.pop(int(doc_id), None)

    # -- reads -----------------------------------------------------------------

    def get(self, doc_id: int) -> Optional[Dict]:
        """A deep copy of the stored document (reads never alias the store)."""
        doc = self._documents.get(doc_id)
        return copy.deepcopy(doc) if doc is not None else None

    def find(self, query: Optional[Mapping] = None) -> List[Dict]:
        query = query or {}
        return [
            copy.deepcopy(d) for d in self._documents.values() if _matches(d, query)
        ]

    def find_one(self, query: Optional[Mapping] = None) -> Optional[Dict]:
        query = query or {}
        for doc in self._documents.values():
            if _matches(doc, query):
                return copy.deepcopy(doc)
        return None

    def count(self, query: Optional[Mapping] = None) -> int:
        if not query:
            return len(self._documents)
        return sum(1 for d in self._documents.values() if _matches(d, query))

    def distinct(self, path: str) -> List:
        seen = []
        for doc in self._documents.values():
            value = _resolve_path(doc, path)
            if value is not _MISSING and value not in seen:
                seen.append(value)
        return seen

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self.find())

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "next_id": self._next_id,
            "documents": copy.deepcopy(list(self._documents.values())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Collection":
        collection = cls(data["name"])
        collection._next_id = data["next_id"]
        for doc in data["documents"]:
            collection._documents[doc["_id"]] = copy.deepcopy(dict(doc))
        return collection


class DocumentStore:
    """A set of named collections, optionally persisted durably.

    With a ``path``, mutations are write-ahead journaled (see the module
    docstring) and the constructor recovers automatically: snapshot, then
    committed journal records, torn tail discarded.  ``fsync=False``
    keeps the journal and snapshots atomic but skips the durability
    barrier (useful for tests on slow filesystems).
    """

    def __init__(
        self,
        path: Optional[Union[str, os.PathLike]] = None,
        fsync: bool = True,
    ):
        self.path = os.fspath(path) if path is not None else None
        self.fsync = bool(fsync)
        self._collections: Dict[str, Collection] = {}
        self._journal: Optional[Journal] = None
        self.last_recovery: Dict[str, int] = {
            "replayed": 0, "discarded_records": 0, "discarded_bytes": 0,
        }
        if self.path is not None:
            self._journal = Journal(self._journal_path(self.path), fsync=fsync)
            if os.path.exists(self.path) or self._journal.exists():
                self.load()

    @staticmethod
    def _journal_path(path: str) -> str:
        return path + ".journal"

    # -- journaling ----------------------------------------------------------

    def _record(self, collection_name: str, record: dict) -> None:
        if self._journal is not None:
            self._journal.append({"c": collection_name, **record})

    def _attach(self, collection: Collection) -> Collection:
        name = collection.name
        collection._recorder = lambda record: self._record(name, record)
        return collection

    def collection(self, name: str) -> Collection:
        """Get (or lazily create) a collection."""
        if not name:
            raise ValueError("collection name must be non-empty")
        if name not in self._collections:
            self._collections[name] = self._attach(Collection(name))
        return self._collections[name]

    def drop(self, name: str) -> None:
        if name in self._collections:
            self._record(name, {"op": "drop"})
            del self._collections[name]

    @property
    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    # -- durable persistence -------------------------------------------------

    def save(self, path: Optional[Union[str, os.PathLike]] = None) -> str:
        """Publish the snapshot archive atomically and reset the journal.

        The snapshot is one ``store`` document in a
        :func:`~repro.storage.integrity.write_archive` file, staged,
        fsynced and renamed into place, so a crash mid-save leaves the
        previous snapshot (plus the journal) fully intact.
        """
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the store was created in-memory")
        payload = {
            name: collection.to_dict()
            for name, collection in self._collections.items()
        }
        with _histogram(
            "store_snapshot_save_seconds",
            "document-store snapshot publish time (write + fsync + rename)",
        ).time():
            write_archive(target, {}, {"store": payload}, fsync=self.fsync)
        _counter(
            "store_snapshot_saves_total", "snapshots published atomically"
        ).inc()
        if self.path != target or self._journal is None:
            self.path = target
            self._journal = Journal(self._journal_path(target), fsync=self.fsync)
        # Every journaled mutation is now in the snapshot; an empty journal
        # must only be dropped *after* the snapshot is durably published.
        self._journal.reset()
        return target

    def compact(self) -> str:
        """Fold the journal into a fresh snapshot (alias of :meth:`save`)."""
        return self.save()

    def load(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        """Load the snapshot, then replay committed journal records."""
        source = os.fspath(path) if path is not None else self.path
        if source is None:
            raise ValueError("no path given and the store was created in-memory")
        self._collections = {}
        if os.path.exists(source):
            self._load_snapshot(source)
        stats = {"replayed": 0, "discarded_records": 0, "discarded_bytes": 0}
        journal = (
            self._journal
            if self._journal is not None and self.path == source
            else Journal(self._journal_path(source), fsync=self.fsync)
        )
        if journal.exists():
            records, stats = journal.replay()
            for record in records:
                self._apply(record)
        self.last_recovery = stats
        _counter(
            "store_replayed_records_total",
            "committed WAL records re-applied on load",
        ).inc(stats["replayed"])
        if stats["discarded_records"]:
            _counter(
                "store_discarded_records_total",
                "torn WAL tails discarded on load",
            ).inc(stats["discarded_records"])

    def recover(self) -> Dict[str, int]:
        """Reload from disk; returns replay stats.

        ``{"replayed": n, "discarded_records": k, "discarded_bytes": b}``
        — ``k`` is at most 1: only the record in flight when the process
        died can be torn.
        """
        self.load()
        return dict(self.last_recovery)

    def _load_snapshot(self, source: str) -> None:
        if os.path.getsize(source) == 0:
            # An empty file (e.g. a freshly created temp file) is a new store.
            return
        _, docs = read_archive(source)
        if "store" not in docs:
            raise CorruptArtifactError(f"no store document in {source}")
        payload = docs["store"]
        self._collections = {
            name: self._attach(Collection.from_dict(data))
            for name, data in payload.items()
        }

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        name = record.get("c")
        if not name:
            return
        if op == "drop":
            self._collections.pop(name, None)
            return
        collection = self.collection(name)
        if op == "insert":
            collection._apply_insert(record["doc"])
        elif op == "update":
            collection._apply_update(record["id"], record["changes"])
        elif op == "delete":
            collection._apply_delete(record["ids"])
        # Unknown ops from a newer writer are skipped, not fatal.
