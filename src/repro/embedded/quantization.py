"""Post-training int8 weight quantization.

The paper's §IV argues that overlay architectures win by "tailor[ing] the
processing elements to specific operations and number formats".  The
natural first number-format step below float32 is symmetric int8: this
module quantizes one weight tensor to int8 with a float scale per tensor
(or per output channel), the 4x weight-memory saving that matters on
bandwidth-starved embedded fabrics.  Its consumer is
:func:`repro.inference.freeze`, which compiles the int8 payload into an
:class:`~repro.inference.plan.InferencePlan`, records the calibrated
accuracy cost and ships the int8 tensors + scales to disk.

Scale semantics: ``scale == 0.0`` marks a tensor (or, per-channel, a
channel) that was identically zero — dequantization multiplies by 0.0
and reproduces it exactly.  Earlier versions silently recorded ``1.0``
for this case, which round-tripped correctly only because the quantized
values were also zero; a consumer that inspected scales (e.g. to rank
tensors by dynamic range) would have seen a fictitious range.

``per_channel=True`` keys scales to the *last* axis of each tensor with
``ndim >= 2`` — the output-channel axis for conv ``(K, C, F)`` and dense
``(in, units)`` weights — so one saturated filter no longer inflates the
rounding step of every other filter in the tensor.  1-D tensors
(biases) always use a per-tensor scale: per-element scales would make
quantization a no-op.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = ["quantize_tensor"]

_INT8_MAX = 127

#: A per-tensor scale is a plain float; per-channel scales are a 1-D
#: array over the tensor's last axis.
Scale = Union[float, np.ndarray]


def quantize_tensor(
    weight: np.ndarray, per_channel: bool = False
) -> Tuple[np.ndarray, Scale]:
    """Symmetric int8 quantization of one tensor; returns (int8, scale).

    Per-tensor by default; with ``per_channel=True`` and ``ndim >= 2``,
    one scale per last-axis channel.  All-zero tensors/channels record
    ``scale = 0.0`` explicitly (see module docstring).
    """
    weight = np.asarray(weight, dtype=np.float64)
    if per_channel and weight.ndim >= 2:
        peak = np.max(np.abs(weight), axis=tuple(range(weight.ndim - 1)))
        scale = peak / _INT8_MAX
        # Dead channels: divide by 1.0 (yielding zeros) but keep scale 0.0.
        safe = np.where(scale == 0.0, 1.0, scale)
        quantized = np.clip(np.round(weight / safe), -_INT8_MAX, _INT8_MAX)
        return quantized.astype(np.int8), scale
    peak = float(np.max(np.abs(weight)))
    if peak == 0.0:
        return np.zeros(weight.shape, dtype=np.int8), 0.0
    scale = peak / _INT8_MAX
    quantized = np.clip(np.round(weight / scale), -_INT8_MAX, _INT8_MAX)
    return quantized.astype(np.int8), scale

