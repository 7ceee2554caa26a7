"""1-D convolutional layers.

``Conv1D`` is the workhorse of the paper's MS network (Table 1).
``LocallyConnected1D`` — a convolution whose weights are *not* shared across
positions — is the first layer of the paper's NMR network; unshared weights
make sense for spectra because each position on the m/z or chemical-shift
axis has a fixed physical meaning.

Both layers are implemented via an im2col transform so the inner loop is a
single matmul/einsum.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.layers.windows import col2im, im2col

__all__ = ["Conv1D", "LocallyConnected1D"]


def _conv_output_length(length: int, kernel: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-length // stride)  # ceil division
    out = (length - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input "
            f"length {length} (padding={padding!r})"
        )
    return out


def _same_padding(length: int, kernel: int, stride: int) -> Tuple[int, int]:
    out = -(-length // stride)
    total = max(0, (out - 1) * stride + kernel - length)
    return total // 2, total - total // 2


class _WindowedLayer(Layer):
    """Shared im2col machinery for Conv1D and LocallyConnected1D."""

    def __init__(self, kernel_size: int, strides: int, padding: str):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        if strides <= 0:
            raise ValueError(f"strides must be positive, got {strides}")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.kernel_size = int(kernel_size)
        self.strides = int(strides)
        self.padding = padding
        self._pad = (0, 0)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """(N, L, C) -> C-contiguous (N, out_L, kernel, C)."""
        if self._pad != (0, 0):
            x = np.pad(x, ((0, 0), self._pad, (0, 0)))
        return im2col(x, self.kernel_size, self.strides)

    def _col2im(self, dcols: np.ndarray, length: int) -> np.ndarray:
        """Scatter-add (N, out_L, kernel, C) back to (N, L, C)."""
        lo, hi = self._pad
        dx = col2im(dcols, lo + length + hi, self.strides)
        if self._pad != (0, 0):
            dx = dx[:, lo : lo + length, :]
        return dx


class Conv1D(_WindowedLayer):
    """1-D convolution with shared weights.

    Input ``(batch, length, channels)``; kernel ``(kernel, channels,
    filters)``.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        strides: int = 1,
        padding: str = "valid",
        activation=None,
        kernel_initializer="glorot_uniform",
        bias_initializer="zeros",
        use_bias: bool = True,
    ):
        super().__init__(kernel_size, strides, padding)
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        self.filters = int(filters)
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.bias_initializer = get_initializer(bias_initializer)
        self.use_bias = bool(use_bias)

    def compute_output_shape(self, input_shape):
        if len(input_shape) != 2:
            raise ValueError(
                f"Conv1D expects input shape (length, channels), got {input_shape}"
            )
        length, _ = input_shape
        out = _conv_output_length(length, self.kernel_size, self.strides, self.padding)
        return (out, self.filters)

    def build(self, input_shape, rng):
        length, channels = input_shape
        if self.padding == "same":
            self._pad = _same_padding(length, self.kernel_size, self.strides)
        self.params["W"] = self.kernel_initializer(
            (self.kernel_size, channels, self.filters), rng
        )
        if self.use_bias:
            self.params["b"] = self.bias_initializer((self.filters,), rng)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        cols = self._im2col(x)  # (N, out_L, K, C)
        n, out_length = cols.shape[0], cols.shape[1]
        # Flatten to one big GEMM: (N*out_L, K*C) @ (K*C, F).  cols is
        # C-contiguous, so every reshape below is a view and the matmul
        # runs without a second copy of the im2col.
        cols2 = cols.reshape(n * out_length, -1)
        w2 = self.params["W"].reshape(-1, self.filters)
        z = (cols2 @ w2).reshape(n, out_length, self.filters)
        if self.use_bias:
            z = z + self.params["b"]
        y = self.activation.forward(z)
        if training:
            self._cache = (x.shape[1], cols.shape, cols2, z, y)
        return y

    def backward(self, grad):
        length, cols_shape, cols2, z, y = self._take_cache()
        dz = self.activation.backward(grad, z, y)  # (N, out_L, F)
        dz2 = dz.reshape(-1, self.filters)
        self.grads["W"] = (cols2.T @ dz2).reshape(self.params["W"].shape)
        # Free the im2col buffer before dcols, which is as large.
        del cols2, z, y
        if self.use_bias:
            self.grads["b"] = dz2.sum(axis=0)
        w2 = self.params["W"].reshape(-1, self.filters)
        dcols = (dz2 @ w2.T).reshape(cols_shape)  # (N, out_L, K, C)
        return self._col2im(dcols, length)

    def get_config(self):
        return {
            "filters": self.filters,
            "kernel_size": self.kernel_size,
            "strides": self.strides,
            "padding": self.padding,
            "activation": self.activation.name,
            "kernel_initializer": self.kernel_initializer.get_config(),
            "bias_initializer": self.bias_initializer.get_config(),
            "use_bias": self.use_bias,
        }


class LocallyConnected1D(_WindowedLayer):
    """1-D locally connected layer (unshared convolution weights).

    Kernel shape ``(out_length, kernel * channels, filters)``; biases are
    per-position ``(out_length, filters)``, matching Keras — this is what
    makes the paper's 10 532-parameter NMR model count work out exactly.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        strides: int = 1,
        activation=None,
        kernel_initializer="glorot_uniform",
        bias_initializer="zeros",
        use_bias: bool = True,
    ):
        # Keras only supports 'valid' padding for locally connected layers.
        super().__init__(kernel_size, strides, padding="valid")
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        self.filters = int(filters)
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.bias_initializer = get_initializer(bias_initializer)
        self.use_bias = bool(use_bias)

    def compute_output_shape(self, input_shape):
        if len(input_shape) != 2:
            raise ValueError(
                f"LocallyConnected1D expects (length, channels), got {input_shape}"
            )
        length, _ = input_shape
        out = _conv_output_length(length, self.kernel_size, self.strides, "valid")
        return (out, self.filters)

    def build(self, input_shape, rng):
        length, channels = input_shape
        out_length = _conv_output_length(
            length, self.kernel_size, self.strides, "valid"
        )
        self.params["W"] = self.kernel_initializer(
            (out_length, self.kernel_size * channels, self.filters), rng
        )
        if self.use_bias:
            self.params["b"] = self.bias_initializer((out_length, self.filters), rng)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        cols = self._im2col(x)  # (N, out_L, K, C)
        flat = cols.reshape(cols.shape[0], cols.shape[1], -1)  # (N, out_L, K*C)
        z = np.einsum("nlk,lkf->nlf", flat, self.params["W"])
        if self.use_bias:
            z = z + self.params["b"]
        y = self.activation.forward(z)
        if training:
            self._cache = (x.shape[1], cols.shape, flat, z, y)
        return y

    def backward(self, grad):
        length, cols_shape, flat, z, y = self._take_cache()
        dz = self.activation.backward(grad, z, y)  # (N, out_L, F)
        self.grads["W"] = np.einsum("nlk,nlf->lkf", flat, dz)
        del flat, z, y  # as in Conv1D: free im2col before dflat
        if self.use_bias:
            self.grads["b"] = dz.sum(axis=0)
        dflat = np.einsum("nlf,lkf->nlk", dz, self.params["W"])
        return self._col2im(dflat.reshape(cols_shape), length)

    def get_config(self):
        return {
            "filters": self.filters,
            "kernel_size": self.kernel_size,
            "strides": self.strides,
            "activation": self.activation.name,
            "kernel_initializer": self.kernel_initializer.get_config(),
            "bias_initializer": self.bias_initializer.get_config(),
            "use_bias": self.use_bias,
        }
