"""LSTM layer with full backpropagation through time.

The paper's time-series NMR model is a single LSTM layer with 32 units over
5 timesteps of raw spectra, followed by a Dense(4) head.  Parameter layout
follows Keras (gate order i, f, g, o; kernel ``(input_dim, 4*units)``,
recurrent kernel ``(units, 4*units)``, bias ``(4*units,)``) so the paper's
221 956-parameter count is reproduced exactly.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid, tanh
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer

__all__ = ["LSTM"]


class LSTM(Layer):
    """Long short-term memory layer.

    Input ``(batch, timesteps, features)``.  With ``return_sequences=False``
    (the default, and what the paper uses) the output is the last hidden
    state ``(batch, units)``; otherwise the full sequence
    ``(batch, timesteps, units)``.
    """

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        kernel_initializer="glorot_uniform",
        recurrent_initializer="orthogonal",
        bias_initializer="zeros",
        unit_forget_bias: bool = True,
    ):
        super().__init__()
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.recurrent_initializer = get_initializer(recurrent_initializer)
        self.bias_initializer = get_initializer(bias_initializer)
        self.unit_forget_bias = bool(unit_forget_bias)

    def compute_output_shape(self, input_shape):
        if len(input_shape) != 2:
            raise ValueError(
                f"LSTM expects input shape (timesteps, features), got {input_shape}"
            )
        timesteps, _ = input_shape
        if self.return_sequences:
            return (timesteps, self.units)
        return (self.units,)

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"LSTM expects input shape (timesteps, features), got {input_shape}"
            )
        _, features = input_shape
        u = self.units
        self.params["W"] = self.kernel_initializer((features, 4 * u), rng)
        self.params["U"] = self.recurrent_initializer((u, 4 * u), rng)
        bias = self.bias_initializer((4 * u,), rng)
        if self.unit_forget_bias:
            # Standard trick: start with the forget gate open so gradients
            # flow through time early in training.
            bias[u : 2 * u] = 1.0
        self.params["b"] = bias
        super().build(input_shape, rng)

    def _split(self, z):
        u = self.units
        return z[..., :u], z[..., u : 2 * u], z[..., 2 * u : 3 * u], z[..., 3 * u :]

    def forward(self, x, training=False):
        self._check_built()
        n, timesteps, _ = x.shape
        u = self.units
        h = np.zeros((n, u))
        c = np.zeros((n, u))
        steps = []
        outputs = np.empty((n, timesteps, u))
        # Hoist the input projection out of the time loop: x @ W for all
        # timesteps at once is one large matmul instead of T small ones.
        xw = x @ self.params["W"] + self.params["b"]
        for t in range(timesteps):
            z = xw[:, t, :] + h @ self.params["U"]
            zi, zf, zg, zo = self._split(z)
            i = sigmoid.forward(zi)
            f = sigmoid.forward(zf)
            g = tanh.forward(zg)
            o = sigmoid.forward(zo)
            c_prev = c
            c = f * c_prev + i * g
            tc = tanh.forward(c)
            h = o * tc
            outputs[:, t, :] = h
            if training:
                steps.append((i, f, g, o, c_prev, c, tc))
        if training:
            self._cache = (x, steps, outputs)
        if self.return_sequences:
            return outputs
        return outputs[:, -1, :]

    def backward(self, grad):
        x, steps, outputs = self._take_cache()
        n, timesteps, features = x.shape
        u = self.units
        w, u_mat = self.params["W"], self.params["U"]

        if self.return_sequences:
            dout = grad
        else:
            dout = np.zeros((n, timesteps, u))
            dout[:, -1, :] = grad

        dw = np.zeros_like(w)
        du = np.zeros_like(u_mat)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(x)
        dh_next = np.zeros((n, u))
        dc_next = np.zeros((n, u))

        for t in range(timesteps - 1, -1, -1):
            i, f, g, o, c_prev, c, tc = steps[t]
            dh = dout[:, t, :] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                (
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ),
                axis=1,
            )
            xt = x[:, t, :]
            h_prev = outputs[:, t - 1, :] if t > 0 else np.zeros((n, u))
            dw += xt.T @ dz
            du += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ w.T
            dh_next = dz @ u_mat.T

        self.grads["W"] = dw
        self.grads["U"] = du
        self.grads["b"] = db
        return dx

    def get_config(self):
        return {
            "units": self.units,
            "return_sequences": self.return_sequences,
            "kernel_initializer": self.kernel_initializer.get_config(),
            "recurrent_initializer": self.recurrent_initializer.get_config(),
            "bias_initializer": self.bias_initializer.get_config(),
            "unit_forget_bias": self.unit_forget_bias,
        }
