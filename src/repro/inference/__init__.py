"""Frozen inference: quantized, fused, plan-compiled kernels.

``freeze()`` compiles a built :class:`~repro.nn.model.Sequential` into an
immutable :class:`InferencePlan` of fused ops (conv/dense + bias +
activation, checked kernel/stride window geometry, float32 or calibrated
symmetric int8 weights); :class:`InferenceEngine` executes plans inside
one preallocated workspace with a pinned per-dtype accuracy contract; the
persistence helpers ship plans through the checksummed storage envelope.

This package is a *leaf* over :mod:`repro.nn`, :mod:`repro.embedded` and
:mod:`repro.storage` — serving and the CLI reach down into it, it never
imports upward.
"""

from repro.inference.engine import InferenceEngine
from repro.inference.persistence import (
    inspect_plan,
    load_plan,
    save_plan,
    verify_plan,
)
from repro.inference.plan import (
    DEFAULT_CONTRACTS,
    PLAN_FORMAT_VERSION,
    AccuracyContractError,
    FusedOp,
    InferencePlan,
    UnsupportedLayerError,
    freeze,
)

__all__ = [
    "AccuracyContractError",
    "DEFAULT_CONTRACTS",
    "FusedOp",
    "InferenceEngine",
    "InferencePlan",
    "PLAN_FORMAT_VERSION",
    "UnsupportedLayerError",
    "freeze",
    "inspect_plan",
    "load_plan",
    "save_plan",
    "verify_plan",
]
