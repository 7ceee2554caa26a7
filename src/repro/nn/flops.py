"""Per-layer operation counting.

The embedded-platform cost model (Table 2 reproduction) needs, for every
layer of a built model, the number of multiply-accumulate-equivalent FLOPs,
the parameter bytes, and the activation bytes moved.  Counts follow the
usual convention: one multiply-add = 2 FLOPs; activations cost one FLOP per
element (a few more for SELU/softmax, which are transcendental).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.nn.layers import (
    ActivationLayer,
    AvgPool1D,
    Conv1D,
    Dense,
    Flatten,
    GlobalAvgPool1D,
    LocallyConnected1D,
    LSTM,
    MaxPool1D,
    Reshape,
)
from repro.nn.model import Sequential

__all__ = ["LayerCost", "layer_flops", "count_model_flops"]

# Cost in FLOPs per element for each activation, approximating the mix of
# exp/div instructions they lower to.
_ACTIVATION_FLOPS = {
    "linear": 0,
    "relu": 1,
    "selu": 4,
    "sigmoid": 4,
    "tanh": 4,
    "softmax": 5,
}

_BYTES_PER_VALUE = 4  # deployment assumes float32 weights/activations


@dataclass(frozen=True)
class LayerCost:
    """Inference cost of one layer for a single input sample."""

    layer_name: str
    flops: int
    param_bytes: int
    activation_bytes: int

    def __add__(self, other: "LayerCost") -> "LayerCost":
        return LayerCost(
            layer_name=f"{self.layer_name}+{other.layer_name}",
            flops=self.flops + other.flops,
            param_bytes=self.param_bytes + other.param_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
        )


def _out_elems(layer) -> int:
    return int(np.prod(layer.output_shape))


def _activation_cost(layer, elems: int) -> int:
    activation = getattr(layer, "activation", None)
    if activation is None:
        return 0
    return _ACTIVATION_FLOPS.get(activation.name, 4) * elems


def layer_flops(layer) -> LayerCost:
    """Inference cost of a single built layer (per sample)."""
    if not layer.built:
        raise ValueError(f"{layer.name} must be built before counting FLOPs")
    out = _out_elems(layer)
    param_bytes = layer.count_params() * _BYTES_PER_VALUE
    act_bytes = out * _BYTES_PER_VALUE

    if isinstance(layer, Dense):
        in_features = layer.input_shape[-1]
        leading = int(np.prod(layer.input_shape[:-1])) if len(layer.input_shape) > 1 else 1
        flops = 2 * in_features * layer.units * leading
        if layer.use_bias:
            flops += layer.units * leading
        flops += _activation_cost(layer, out)
    elif isinstance(layer, (Conv1D, LocallyConnected1D)):
        out_length, filters = layer.output_shape
        channels = layer.input_shape[1]
        flops = 2 * layer.kernel_size * channels * filters * out_length
        if layer.use_bias:
            flops += filters * out_length
        flops += _activation_cost(layer, out)
    elif isinstance(layer, LSTM):
        timesteps, features = layer.input_shape
        u = layer.units
        per_step = 2 * (features * 4 * u + u * 4 * u) + 4 * u  # matmuls + bias
        per_step += 4 * u * _ACTIVATION_FLOPS["sigmoid"]  # 3 sigmoids + tanh(g)
        per_step += u * (_ACTIVATION_FLOPS["tanh"] + 3)  # tanh(c) + gate products
        flops = per_step * timesteps
    elif isinstance(layer, (MaxPool1D, AvgPool1D)):
        flops = layer.pool_size * out
    elif isinstance(layer, GlobalAvgPool1D):
        flops = int(np.prod(layer.input_shape))
    elif isinstance(layer, ActivationLayer):
        flops = _ACTIVATION_FLOPS.get(layer.activation.name, 4) * out
    elif isinstance(layer, (Flatten, Reshape)):
        flops = 0
        act_bytes = 0  # pure views at inference time
    else:
        # Conservative default for layers added later: one FLOP per output.
        flops = out
    return LayerCost(layer.name, int(flops), int(param_bytes), int(act_bytes))


def count_model_flops(model: Sequential) -> List[LayerCost]:
    """Per-layer inference cost for one sample through a built model."""
    if not model.built:
        raise ValueError("model must be built before counting FLOPs")
    return [layer_flops(layer) for layer in model.layers]
