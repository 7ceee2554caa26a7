"""Durable-state layer: verified bytes for everything the repo persists.

The paper's closed-loop and provenance tooling assume state written
yesterday is still trustworthy today; this package makes that assumption
checkable instead of hopeful.  Durable state takes exactly two forms,
each with one job:

* **archives** for state files — :mod:`repro.storage.integrity`: named
  arrays plus JSON documents in a checksummed, schema-versioned envelope
  (magic + version + length + SHA-256), published by fsync'd atomic
  rename, behind models, cache entries, plans, CLI datasets and the
  document-store snapshot; plus the
  ``CorruptArtifactError``/``SchemaVersionError`` taxonomy, the raw-byte
  publisher for reports and manifests, and the one quarantine rule;
* **journals** for append logs — :mod:`repro.storage.journal`: a
  checksummed append-only write-ahead log with torn-tail recovery,
  backing :class:`~repro.db.document_store.DocumentStore` mutations and
  the campaign orchestrator's run log.

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
    wrap,
    write_archive,
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
    "wrap",
    "write_archive",
]
