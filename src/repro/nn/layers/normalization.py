"""Batch normalization.

Used by the explorative architecture search as one of the degrees of
freedom when deeper variants of the Table-1 CNN are tried.  Normalizes
over all axes except the last (features/channels), so the same layer works
after Dense (batch,) and Conv1D (batch, length) feature maps.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Batch normalization over the feature (last) axis."""

    def __init__(self, momentum: float = 0.9, epsilon: float = 1e-5):
        super().__init__()
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.running_mean: np.ndarray = None
        self.running_var: np.ndarray = None

    def build(self, input_shape, rng):
        features = input_shape[-1]
        self.params["gamma"] = np.ones(features)
        self.params["beta"] = np.zeros(features)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        self._check_built()
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1.0 - m) * mean
            self.running_var = m * self.running_var + (1.0 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean) * inv_std
        y = self.params["gamma"] * x_hat + self.params["beta"]
        if training:
            n = int(np.prod([x.shape[a] for a in axes]))
            self._cache = (x_hat, inv_std, n, axes)
        else:
            self._cache = None
        return y

    def backward(self, grad, input_grad=True):
        cache, self._cache = self._cache, None
        if cache is None:
            # Inference-mode backward: running statistics are constants.
            if not input_grad:
                return None
            return grad * self.params["gamma"] / np.sqrt(
                self.running_var + self.epsilon
            )
        x_hat, inv_std, n, axes = cache
        gamma = self.params["gamma"]
        self.grads["gamma"] = np.sum(grad * x_hat, axis=axes)
        self.grads["beta"] = np.sum(grad, axis=axes)
        if not input_grad:
            return None
        # Standard batch-norm gradient through the batch statistics.
        dxhat = grad * gamma
        term1 = dxhat
        term2 = np.mean(dxhat, axis=axes)
        term3 = x_hat * np.mean(dxhat * x_hat, axis=axes)
        return inv_std * (term1 - term2 - term3)

    def get_config(self):
        return {"momentum": self.momentum, "epsilon": self.epsilon}
