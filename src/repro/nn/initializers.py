"""Weight initializers.

The paper's networks use SELU activations in the hidden layers; SELU only
keeps its self-normalizing property when the weights are drawn from a LeCun
normal distribution, so that initializer is included alongside the usual
Glorot/He schemes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Initializer",
    "Zeros",
    "Constant",
    "GlorotUniform",
    "HeNormal",
    "LeCunNormal",
    "Orthogonal",
    "get_initializer",
]


def _fans(shape: tuple) -> tuple:
    """Compute (fan_in, fan_out) for a weight tensor shape.

    For 2-D shapes ``(in, out)`` this is straightforward; for conv kernels
    ``(kernel, in_channels, filters)`` the receptive-field size multiplies
    the channel counts, matching the Keras convention.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive


class Initializer:
    """Base class: initializers are callables ``(shape, rng) -> ndarray``."""

    name = "initializer"

    def __call__(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def get_config(self) -> dict:
        return {"name": self.name}


class Zeros(Initializer):
    name = "zeros"

    def __call__(self, shape, rng):
        return np.zeros(shape, dtype=np.float64)


class Constant(Initializer):
    name = "constant"

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def __call__(self, shape, rng):
        return np.full(shape, self.value, dtype=np.float64)

    def get_config(self):
        return {"name": self.name, "value": self.value}


class GlorotUniform(Initializer):
    """Uniform(-l, l) with l = sqrt(6 / (fan_in + fan_out))."""

    name = "glorot_uniform"

    def __call__(self, shape, rng):
        fan_in, fan_out = _fans(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)


class HeNormal(Initializer):
    """Normal(0, sqrt(2 / fan_in)); appropriate for ReLU hidden layers."""

    name = "he_normal"

    def __call__(self, shape, rng):
        fan_in, _ = _fans(shape)
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class LeCunNormal(Initializer):
    """Normal(0, sqrt(1 / fan_in)); required for SELU self-normalization."""

    name = "lecun_normal"

    def __call__(self, shape, rng):
        fan_in, _ = _fans(shape)
        return rng.normal(0.0, np.sqrt(1.0 / fan_in), size=shape)


class Orthogonal(Initializer):
    """Orthogonal initializer, used for LSTM recurrent kernels."""

    name = "orthogonal"

    def __init__(self, gain: float = 1.0):
        self.gain = float(gain)

    def __call__(self, shape, rng):
        if len(shape) < 2:
            raise ValueError("Orthogonal initializer needs a >=2-D shape")
        rows = shape[0]
        cols = int(np.prod(shape[1:]))
        flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
        q, r = np.linalg.qr(flat)
        # Sign correction makes the distribution uniform over orthogonal
        # matrices instead of biased by QR's sign convention.
        q *= np.sign(np.diag(r))
        if rows < cols:
            q = q.T
        return np.ascontiguousarray((self.gain * q[:rows, :cols]).reshape(shape))

    def get_config(self):
        return {"name": self.name, "gain": self.gain}


_REGISTRY = {
    cls.name: cls
    for cls in (
        Zeros,
        Constant,
        GlorotUniform,
        HeNormal,
        LeCunNormal,
        Orthogonal,
    )
}


def get_initializer(spec) -> Initializer:
    """Resolve an initializer from a name, config dict, or instance."""
    if isinstance(spec, Initializer):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ValueError(
                f"unknown initializer {spec!r}; known: {sorted(_REGISTRY)}"
            ) from None
    if isinstance(spec, dict):
        config = dict(spec)
        name = config.pop("name")
        return _REGISTRY[name](**config)
    raise TypeError(f"cannot resolve initializer from {type(spec).__name__}")
