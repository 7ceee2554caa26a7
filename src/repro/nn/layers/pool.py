"""1-D pooling layers (used in the paper's NMR architecture search)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.windows import col2im, im2col

__all__ = ["MaxPool1D", "AvgPool1D", "GlobalAvgPool1D"]


class _Pool1D(Layer):
    def __init__(self, pool_size: int = 2, strides: int = None):
        super().__init__()
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.strides = int(strides) if strides is not None else self.pool_size
        if self.strides <= 0:
            raise ValueError(f"strides must be positive, got {self.strides}")

    def compute_output_shape(self, input_shape):
        if len(input_shape) != 2:
            raise ValueError(f"pooling expects (length, channels), got {input_shape}")
        length, channels = input_shape
        out = (length - self.pool_size) // self.strides + 1
        if out <= 0:
            raise ValueError(
                f"pool_size {self.pool_size} does not fit length {length}"
            )
        return (out, channels)

    def get_config(self):
        return {"pool_size": self.pool_size, "strides": self.strides}


class MaxPool1D(_Pool1D):
    def forward(self, x, training=False):
        self._check_built()
        win = im2col(x, self.pool_size, self.strides)
        y = win.max(axis=2)
        if training:
            # One-hot argmax mask; ties broadcast the gradient to the first max.
            mask = win == y[:, :, None, :]
            first = np.cumsum(mask, axis=2) == 1
            self._cache = (x.shape[1], mask & first)
        return y

    def backward(self, grad):
        length, mask = self._take_cache()
        return col2im(mask * grad[:, :, None, :], length, self.strides)


class AvgPool1D(_Pool1D):
    def forward(self, x, training=False):
        self._check_built()
        win = im2col(x, self.pool_size, self.strides)
        if training:
            self._cache = x.shape[1]
        return win.mean(axis=2)

    def backward(self, grad):
        length = self._take_cache()
        dwin = np.broadcast_to(
            grad[:, :, None, :] / self.pool_size,
            (grad.shape[0], grad.shape[1], self.pool_size, grad.shape[2]),
        )
        return col2im(dwin, length, self.strides)


class GlobalAvgPool1D(Layer):
    """Average over the length axis: (N, L, C) -> (N, C)."""

    def compute_output_shape(self, input_shape):
        if len(input_shape) != 2:
            raise ValueError(f"expected (length, channels), got {input_shape}")
        return (input_shape[1],)

    def forward(self, x, training=False):
        self._check_built()
        if training:
            self._cache = x.shape
        return x.mean(axis=1)

    def backward(self, grad):
        n, length, channels = self._take_cache()
        return np.broadcast_to(
            grad[:, None, :] / length, (n, length, channels)
        ).copy()
