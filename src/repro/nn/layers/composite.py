"""Composite layers for the paper's preliminary architecture study.

Before settling on the Table-1 CNN, the paper "performed a preliminary
investigation considering a broad set of ANN topologies ... Multi-Layer
Perceptron (MLP) networks, the ResNet and Highway network architectures,
and Convolutional Neural Networks".  These two layers make the ResNet- and
Highway-style variants expressible in a plain Sequential stack.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import get_activation, sigmoid
from repro.nn.initializers import Constant, get_initializer
from repro.nn.layers.base import Layer

__all__ = ["ResidualDense", "HighwayDense"]


class ResidualDense(Layer):
    """A dense layer with an identity skip: ``y = act(x @ W + b) + x``.

    Input and output dimensionality are equal by construction (ResNet's
    identity-shortcut case).
    """

    def __init__(self, activation="relu", kernel_initializer="he_normal"):
        super().__init__()
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(f"ResidualDense expects a flat input, got {input_shape}")
        features = input_shape[0]
        self.params["W"] = self.kernel_initializer((features, features), rng)
        self.params["b"] = np.zeros(features)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        z = x @ self.params["W"] + self.params["b"]
        h = self.activation.forward(z)
        if training:
            self._cache = (x, z, h)
        return h + x

    def backward(self, grad):
        x, z, h = self._take_cache()
        dh = self.activation.backward(grad, z, h)
        self.grads["W"] = x.T @ dh
        self.grads["b"] = dh.sum(axis=0)
        return dh @ self.params["W"].T + grad

    def get_config(self):
        return {
            "activation": self.activation.name,
            "kernel_initializer": self.kernel_initializer.get_config(),
        }


class HighwayDense(Layer):
    """A Highway layer: ``y = T(x) * H(x) + (1 - T(x)) * x``.

    ``H`` is a dense transform with the given activation, ``T`` a sigmoid
    gate whose bias starts negative so the layer initially passes its input
    through (Srivastava et al., "Highway Networks", the paper's ref [13]).
    """

    def __init__(
        self,
        activation="relu",
        kernel_initializer="glorot_uniform",
        transform_bias: float = -2.0,
    ):
        super().__init__()
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.transform_bias = float(transform_bias)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(f"HighwayDense expects a flat input, got {input_shape}")
        features = input_shape[0]
        self.params["W_h"] = self.kernel_initializer((features, features), rng)
        self.params["b_h"] = np.zeros(features)
        self.params["W_t"] = self.kernel_initializer((features, features), rng)
        self.params["b_t"] = Constant(self.transform_bias)((features,), rng)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        z_h = x @ self.params["W_h"] + self.params["b_h"]
        h = self.activation.forward(z_h)
        z_t = x @ self.params["W_t"] + self.params["b_t"]
        t = sigmoid.forward(z_t)
        if training:
            self._cache = (x, z_h, h, t)
        return t * h + (1.0 - t) * x

    def backward(self, grad):
        x, z_h, h, t = self._take_cache()
        dh = grad * t
        dt = grad * (h - x)
        dz_h = self.activation.backward(dh, z_h, h)
        dz_t = dt * t * (1.0 - t)
        self.grads["W_h"] = x.T @ dz_h
        self.grads["b_h"] = dz_h.sum(axis=0)
        self.grads["W_t"] = x.T @ dz_t
        self.grads["b_t"] = dz_t.sum(axis=0)
        return (
            dz_h @ self.params["W_h"].T
            + dz_t @ self.params["W_t"].T
            + grad * (1.0 - t)
        )

    def get_config(self):
        return {
            "activation": self.activation.name,
            "kernel_initializer": self.kernel_initializer.get_config(),
            "transform_bias": self.transform_bias,
        }
