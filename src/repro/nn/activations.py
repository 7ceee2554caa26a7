"""Activation functions with analytic derivatives.

The paper's activation-function study (Fig. 5) sweeps ReLU/SELU hidden
activations against softmax/linear output activations, so each activation
here is an object exposing both ``forward`` and ``backward``.

``softmax`` is treated specially: its Jacobian is dense, so its ``backward``
implements the full Jacobian-vector product per sample rather than an
elementwise derivative.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "linear",
    "relu",
    "selu",
    "sigmoid",
    "tanh",
    "softmax",
    "get_activation",
]

# Constants from Klambauer et al., "Self-Normalizing Neural Networks".
_SELU_ALPHA = 1.6732632423543772848170429916717
_SELU_SCALE = 1.0507009873554804934193349852946


class Activation:
    """An activation function with its derivative.

    ``forward(x)`` returns the activated values.  ``backward(grad, x, y)``
    returns dL/dx given dL/dy, the pre-activation ``x`` and the activation
    output ``y`` (passing both lets each activation use whichever is
    cheaper).
    """

    name = "activation"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        return f"<activation {self.name}>"


class Linear(Activation):
    """Identity activation: y = x."""

    name = "linear"

    def forward(self, x):
        return x

    def backward(self, grad, x, y):
        return grad


class ReLU(Activation):
    """Rectified linear unit: max(x, 0)."""

    name = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0)

    def backward(self, grad, x, y):
        return grad * (x > 0.0)


class SELU(Activation):
    """Scaled exponential linear unit (self-normalizing networks)."""

    name = "selu"

    def forward(self, x):
        # scale * (max(x, 0) + alpha * expm1(min(x, 0))), in place.  For
        # x > 0 the second term is +0.0; for x <= 0 the first is a zero and
        # the second is never -0.0 (min(-0.0, 0.0) is +0.0).  So the sum
        # has the bytes of the two-branch select (DESIGN §16).
        y = np.minimum(x, 0.0)
        np.expm1(y, out=y)
        y *= _SELU_ALPHA
        y += np.maximum(x, 0.0)
        y *= _SELU_SCALE
        return y

    def backward(self, grad, x, y):
        # For x <= 0, y = scale*alpha*(exp(x)-1) so dy/dx = y + scale*alpha.
        deriv = y + _SELU_SCALE * _SELU_ALPHA
        np.putmask(deriv, x > 0.0, _SELU_SCALE)
        return np.multiply(grad, deriv, out=deriv)


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stable for large |x|."""

    name = "sigmoid"

    def forward(self, x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def backward(self, grad, x, y):
        return grad * y * (1.0 - y)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x):
        return np.tanh(x)

    def backward(self, grad, x, y):
        return grad * (1.0 - y * y)


class Softmax(Activation):
    """Softmax over the last axis.

    The paper uses softmax both on the final Dense layer (concentration
    vectors summing to one) and, unusually, on an intermediate Conv1D layer
    (Table 1, layer 6) — there it normalizes across the filter axis, which
    is the last axis in our channels-last layout, so a single "last axis"
    implementation serves both placements.
    """

    name = "softmax"

    def forward(self, x):
        shifted = x - np.max(x, axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / np.sum(e, axis=-1, keepdims=True)

    def backward(self, grad, x, y):
        # dL/dx_i = y_i * (dL/dy_i - sum_j dL/dy_j y_j)
        dot = np.sum(grad * y, axis=-1, keepdims=True)
        return y * (grad - dot)


linear = Linear()
relu = ReLU()
selu = SELU()
sigmoid = Sigmoid()
tanh = Tanh()
softmax = Softmax()

_REGISTRY = {
    a.name: a for a in (linear, relu, selu, sigmoid, tanh, softmax)
}
# The paper's Fig. 5 axis labels abbreviate softmax as "sftm" and linear as
# "lin"; accept those spellings so experiment configs can quote the paper.
_ALIASES = {"sftm": "softmax", "lin": "linear"}


def get_activation(spec) -> Activation:
    """Resolve an activation from a name (or alias), ``None``, or instance."""
    if spec is None:
        return linear
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        name = _ALIASES.get(spec.lower(), spec.lower())
        try:
            return _REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"unknown activation {spec!r}; known: {sorted(_REGISTRY)}"
            ) from None
    raise TypeError(f"cannot resolve activation from {type(spec).__name__}")
