"""Numerical gradient checking helpers shared by the nn layer tests."""

from __future__ import annotations

import numpy as np

__all__ = ["check_layer_gradients", "numeric_grad"]


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    # Index-based perturbation works even for non-C-contiguous arrays,
    # where reshape(-1) would silently return a copy.
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_layer_gradients(layer, input_shape, seed=0, atol=1e-6, rtol=1e-4):
    """Verify a layer's backward() against central differences.

    Uses loss = sum(forward(x) * R) with a fixed random R so the upstream
    gradient is nontrivial.  Checks the input gradient and every parameter
    gradient.  Forwards run with ``training=True``, the mode whose cache
    ``backward`` reads.
    """
    rng = np.random.default_rng(seed)
    layer.build(input_shape[1:], rng)
    x = rng.normal(0.0, 1.0, size=input_shape)
    out = layer.forward(x, training=True)
    upstream = np.random.default_rng(seed + 1).normal(size=out.shape)

    def loss():
        return float(np.sum(layer.forward(x, training=True) * upstream))

    # Analytic pass (re-run forward so caches match loss()).
    layer.forward(x, training=True)
    dx = layer.backward(upstream.copy())

    dx_num = numeric_grad(loss, x)
    np.testing.assert_allclose(dx, dx_num, atol=atol, rtol=rtol, err_msg="input grad")

    for name, param in layer.params.items():
        layer.forward(x, training=True)
        layer.backward(upstream.copy())
        analytic = layer.grads[name].copy()
        numeric = numeric_grad(loss, param)
        np.testing.assert_allclose(
            analytic, numeric, atol=atol, rtol=rtol, err_msg=f"param grad {name}"
        )
