"""Core layers: Dense, Flatten, Reshape, ActivationLayer."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, _positive_int

__all__ = ["Dense", "Flatten", "Reshape", "ActivationLayer"]


class Dense(Layer):
    """Fully connected layer ``y = activation(x @ W + b)``.

    Operates on the last axis; leading axes (batch, time) are preserved, so
    the same layer serves as the LSTM read-out head on either 2-D or 3-D
    inputs.
    """

    def __init__(
        self,
        units: int,
        activation=None,
        kernel_initializer="glorot_uniform",
        bias_initializer="zeros",
        use_bias: bool = True,
    ):
        super().__init__()
        self.units = _positive_int("units", units)
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.bias_initializer = get_initializer(bias_initializer)
        self.use_bias = bool(use_bias)

    def compute_output_shape(self, input_shape):
        return tuple(input_shape[:-1]) + (self.units,)

    def build(self, input_shape, rng):
        in_features = input_shape[-1]
        self.params["W"] = self.kernel_initializer((in_features, self.units), rng)
        if self.use_bias:
            self.params["b"] = self.bias_initializer((self.units,), rng)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        z = x @ self.params["W"]
        if self.use_bias:
            z += self.params["b"]
        y = self.activation.forward(z)
        if training:
            self._cache = (x, z, y)
        return y

    def backward(self, grad, input_grad=True):
        x, z, y = self._take_cache()
        dz = self.activation.backward(grad, z, y)
        # Collapse any leading axes into one batch axis for the weight grads.
        x2 = x.reshape(-1, x.shape[-1])
        dz2 = dz.reshape(-1, dz.shape[-1])
        self.grads["W"] = x2.T @ dz2
        if self.use_bias:
            self.grads["b"] = dz2.sum(axis=0)
        if not input_grad:
            return None
        return dz @ self.params["W"].T

    def get_config(self):
        return {
            "units": self.units,
            "activation": self.activation.name,
            "kernel_initializer": self.kernel_initializer.get_config(),
            "bias_initializer": self.bias_initializer.get_config(),
            "use_bias": self.use_bias,
        }


class Flatten(Layer):
    """Flatten all non-batch axes into one."""

    def compute_output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training=False):
        self._check_built()
        if training:
            self._cache = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad):
        return grad.reshape(self._take_cache())


class Reshape(Layer):
    """Reshape non-batch axes to ``target_shape``; one axis may be -1.

    Table 1 of the paper uses a Reshape as layer 2 to lift the raw spectrum
    vector ``(length,)`` to the conv input ``(length, 1)``.
    """

    def __init__(self, target_shape):
        super().__init__()
        self.target_shape = tuple(int(d) for d in target_shape)
        if list(self.target_shape).count(-1) > 1:
            raise ValueError("at most one axis of target_shape may be -1")

    def compute_output_shape(self, input_shape):
        total = int(np.prod(input_shape))
        shape = list(self.target_shape)
        if -1 in shape:
            known = int(np.prod([d for d in shape if d != -1]))
            if known == 0 or total % known:
                raise ValueError(
                    f"cannot reshape {input_shape} to {self.target_shape}"
                )
            shape[shape.index(-1)] = total // known
        if int(np.prod(shape)) != total:
            raise ValueError(f"cannot reshape {input_shape} to {self.target_shape}")
        return tuple(shape)

    def forward(self, x, training=False):
        self._check_built()
        if training:
            self._cache = x.shape
        return x.reshape((x.shape[0],) + self.output_shape)

    def backward(self, grad):
        return grad.reshape(self._take_cache())

    def get_config(self):
        return {"target_shape": list(self.target_shape)}


class ActivationLayer(Layer):
    """A standalone activation, for separating linearity from nonlinearity."""

    def __init__(self, activation):
        super().__init__()
        self.activation = get_activation(activation)

    def forward(self, x, training=False):
        self._check_built()
        y = self.activation.forward(x)
        if training:
            self._cache = (x, y)
        return y

    def backward(self, grad):
        x, y = self._take_cache()
        return self.activation.backward(grad, x, y)

    def get_config(self):
        return {"activation": self.activation.name}
