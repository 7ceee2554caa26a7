"""Compute layer: parallel execution + content-addressed artifact cache.

The paper's scaling axis is offline throughput — "a sufficient number of
simulated and labelled measurement series can be generated in minutes" and
whole topology tables swept over them.  This package makes those two hot
paths scale with the hardware:

* :mod:`repro.compute.executor` — :class:`ParallelExecutor`, one
  ``map_tasks()`` API over ``serial``/``thread``/``process`` backends
  (results in payload order, byte-identical on every backend, typed
  :class:`TaskFailure` containment), and :func:`run_grid`, the one
  runner of every seeded fan-out: cache reads in the parent, only the
  misses mapped, in waves;
* :mod:`repro.compute.cache` — :class:`ArtifactCache`, artifacts keyed by
  a canonical SHA-256 of their generating config, stored as
  :mod:`repro.storage.integrity` envelopes with verify-on-read and corrupt
  entry quarantine (nothing is evicted);
* :mod:`repro.compute.datasets` — the cache-aware wrapper deriving the
  canonical generating config of the MS bulk dataset generator.

Layering: ``compute`` sits beside ``reliability``/``storage``/
``observability`` (it imports all three) and below ``core``, which fans
training sweeps out over the executor and hands their arrays to process
workers itself.
"""

from repro.compute.cache import (
    CACHE_FORMAT_VERSION,
    ArtifactCache,
    canonical_blob,
    canonical_key,
)
from repro.compute.datasets import generate_ms_dataset, ms_dataset_config
from repro.compute.executor import (
    BACKENDS,
    GridResult,
    ParallelExecutor,
    TaskFailure,
    run_grid,
)

__all__ = [
    "ArtifactCache",
    "BACKENDS",
    "CACHE_FORMAT_VERSION",
    "GridResult",
    "ParallelExecutor",
    "TaskFailure",
    "canonical_blob",
    "canonical_key",
    "generate_ms_dataset",
    "ms_dataset_config",
    "run_grid",
]
