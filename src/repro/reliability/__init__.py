"""Reliability layer: faults in, recovery out.

The paper's conclusion asks how these systems can run "automatically and
reliably ... within the life cycle of a production".  This package answers
with four cooperating pieces (the closed loop's own degradation rule —
a blind control period holds the actuator — lives in
:mod:`repro.core.closed_loop`):

* :mod:`repro.reliability.faults` — a deterministic, seedable
  :class:`FaultInjector` that wraps any spectrum source and injects
  instrument fault models (dropped scans, detector saturation, dead
  channels, spikes, baseline jumps);
* :mod:`repro.reliability.retry` — :class:`RetryPolicy` (bounded attempts,
  capped exponential backoff, seeded jitter, injectable sleep), used by
  the closed loop, the MS toolchain (through :func:`acquire_with_retry`)
  and the compute executor;
* :mod:`repro.reliability.validation` — input validation gates (shape,
  dtype, finiteness, axis monotonicity, value range) with the structured
  :class:`ValidationError` taxonomy, applied at the ``Sequential.predict``
  boundary and MS toolchain ingestion;
* :mod:`repro.reliability.storage_faults` — :class:`StorageFaultInjector`,
  the disk-side counterpart of :class:`FaultInjector`: torn writes and
  appends, bit flips, lost fsyncs/renames and vanishing files injected
  into the :mod:`repro.storage` write path for chaos tests.
"""

from repro.reliability.faults import (
    AcquisitionError,
    FaultConfig,
    FaultEvent,
    FaultInjector,
)
from repro.reliability.retry import (
    RetryExhaustedError,
    RetryPolicy,
    acquire_with_retry,
    finite_intensities,
)
from repro.reliability.storage_faults import (
    StorageFaultEvent,
    StorageFaultInjector,
    bit_flip_file,
    truncate_file,
)
from repro.reliability.validation import (
    DtypeError,
    MonotonicityError,
    NonFiniteError,
    RangeError,
    ShapeError,
    ValidationError,
    ensure_array,
    ensure_finite,
    ensure_monotonic,
    ensure_range,
    ensure_shape,
    validate_batch,
    validate_spectrum,
)

__all__ = [
    "AcquisitionError",
    "DtypeError",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "MonotonicityError",
    "NonFiniteError",
    "RangeError",
    "RetryExhaustedError",
    "RetryPolicy",
    "ShapeError",
    "StorageFaultEvent",
    "StorageFaultInjector",
    "ValidationError",
    "bit_flip_file",
    "truncate_file",
    "acquire_with_retry",
    "ensure_array",
    "ensure_finite",
    "ensure_monotonic",
    "ensure_range",
    "ensure_shape",
    "finite_intensities",
    "validate_batch",
    "validate_spectrum",
]
