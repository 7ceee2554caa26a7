"""Hardened concurrent serving of spectrum analysis.

The paper argues that millisecond ANN evaluation enables real-time and
production use; this package is the serving shell that makes the claim
hold under load and failure:

* :mod:`repro.serving.circuit` — a thread-safe
  :class:`CircuitBreaker` (closed → open after consecutive failures →
  half-open probes → closed) isolating a broken analyzer backend;
* :mod:`repro.serving.service` — :class:`AnalysisService`, a thread-pool
  frontend with a bounded request queue, per-request deadlines, one
  per-row validation gate at drain (via
  :mod:`repro.reliability.validation`), an output
  finiteness gate, explicit :class:`Rejected` results for every shed
  or failed request, and — with an
  :class:`~repro.uncertainty.policy.UncertaintyGate` installed —
  explicit :class:`Abstained` results when the calibrated prediction
  interval is too wide to vouch for an answer;
* :mod:`repro.serving.batching` — the batched fast path's control
  plane: :class:`BatchingPolicy` (adaptive coalescing: dispatch when the
  batch fills or a load-shrinking max-wait expires) and
  :class:`BrownoutGovernor` (declared degradation levels — grow batches,
  tighten deadlines — walked with hysteresis over queue fill).

Layering: ``serving`` sits above ``reliability`` and below nothing — it
may be driven by any analyzer callable (ANN, IHM, or a caller's
wrapper around either).  The opt-in frozen path
(``AnalysisService(batch_analyzer=batch_analyzer_from_model(model,
frozen=...))``) reaches *down* into the
:mod:`repro.inference` leaf to compile the model once and serve batches
from preallocated scratch; the reverse import never happens.
"""

from repro.serving.batching import (
    BatchingPolicy,
    BrownoutGovernor,
    BrownoutLevel,
    BrownoutTransition,
    batch_analyzer_from_model,
)
from repro.serving.circuit import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitTransition,
)
from repro.serving.service import (
    Abstained,
    AnalysisService,
    Completed,
    PendingRequest,
    Rejected,
)

__all__ = [
    "Abstained",
    "AnalysisService",
    "batch_analyzer_from_model",
    "BatchingPolicy",
    "BrownoutGovernor",
    "BrownoutLevel",
    "BrownoutTransition",
    "CLOSED",
    "CircuitBreaker",
    "CircuitTransition",
    "Completed",
    "HALF_OPEN",
    "OPEN",
    "PendingRequest",
    "Rejected",
]
