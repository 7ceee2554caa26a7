"""Durable-state layer: verified bytes for everything the repo persists.

The paper's closed-loop and provenance tooling assume state written
yesterday is still trustworthy today; this package makes that assumption
checkable instead of hopeful:

* :mod:`repro.storage.integrity` — the checksummed, schema-versioned
  envelope format (magic + version + length + SHA-256), the
  ``CorruptArtifactError``/``SchemaVersionError`` taxonomy, fsync'd
  atomic-write primitives every durable artifact goes through, the one
  archive codec (named arrays + JSON documents) behind models, cache
  entries and plans, and the one quarantine rule;
* :mod:`repro.storage.journal` — a checksummed append-only write-ahead
  journal with torn-tail recovery, backing
  :class:`~repro.db.document_store.DocumentStore` crash recovery and the
  campaign orchestrator's run log.

Layering: ``storage`` is a leaf below ``nn``, ``reliability``, ``db`` and
``serving`` — it imports only the standard library and NumPy.
"""

from repro.storage.integrity import (
    FORMAT_VERSION,
    MAGIC,
    CorruptArtifactError,
    SchemaVersionError,
    SimulatedCrash,
    StorageError,
    atomic_write_bytes,
    fsync_directory,
    quarantine,
    read_archive,
    read_envelope,
    unwrap,
    verify_envelope,
    wrap,
    write_archive,
    write_envelope,
)
from repro.storage.journal import Journal

__all__ = [
    "CorruptArtifactError",
    "FORMAT_VERSION",
    "Journal",
    "MAGIC",
    "SchemaVersionError",
    "SimulatedCrash",
    "StorageError",
    "atomic_write_bytes",
    "fsync_directory",
    "quarantine",
    "read_archive",
    "read_envelope",
    "unwrap",
    "verify_envelope",
    "wrap",
    "write_archive",
    "write_envelope",
]
