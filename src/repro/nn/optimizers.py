"""Gradient-descent optimizer (Adam).

Optimizers hold per-parameter state keyed by ``(layer_index, param_name)``
so a single optimizer instance can drive a whole :class:`Sequential` model.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Optimizer", "Adam", "get_optimizer"]

ParamKey = Tuple[int, str]


class Optimizer:
    """Base class: per-parameter state keyed by ``(layer_index, name)``."""

    name = "optimizer"

    def __init__(self, learning_rate: float = 0.001, clipnorm: float = None):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if clipnorm is not None and not clipnorm > 0:
            raise ValueError(f"clipnorm must be positive, got {clipnorm}")
        self.learning_rate = float(learning_rate)
        self.clipnorm = float(clipnorm) if clipnorm is not None else None
        self.iterations = 0

    def apply(self, params: Dict[ParamKey, np.ndarray], grads: Dict[ParamKey, np.ndarray]) -> None:
        """Update ``params`` in place from ``grads``."""
        self.iterations += 1
        grads = self._maybe_clip(grads)
        for key, g in grads.items():
            self._update(key, params[key], g)

    def _maybe_clip(self, grads):
        if self.clipnorm is None:
            return grads
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > self.clipnorm and total > 0:
            scale = self.clipnorm / total
            return {k: g * scale for k, g in grads.items()}
        return grads

    def _update(self, key: ParamKey, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Discard accumulated state (moments, step count)."""
        self.iterations = 0

    def _slots(self) -> Dict[str, Dict[ParamKey, np.ndarray]]:
        """Per-parameter state dicts by slot name (subclasses override)."""
        return {}

    def get_state(self) -> dict:
        """Snapshot of step count + per-parameter slots, for checkpointing."""
        return {
            "iterations": self.iterations,
            "slots": {
                name: {key: value.copy() for key, value in slot.items()}
                for name, slot in self._slots().items()
            },
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot (exact resume of training)."""
        slots = self._slots()
        given = dict(state.get("slots", {}))
        unknown = set(given) - set(slots)
        if unknown:
            raise ValueError(f"unknown optimizer state slots: {sorted(unknown)}")
        self.iterations = int(state["iterations"])
        for name, slot in slots.items():
            slot.clear()
            for key, value in given.get(name, {}).items():
                slot[key] = np.array(value, dtype=np.float64, copy=True)

    def get_config(self) -> dict:
        return {
            "name": self.name,
            "learning_rate": self.learning_rate,
            "clipnorm": self.clipnorm,
        }


class Adam(Optimizer):
    """Adam (Kingma & Ba): bias-corrected first/second moment estimates."""

    name = "adam"

    def __init__(
        self,
        learning_rate=0.001,
        beta_1=0.9,
        beta_2=0.999,
        epsilon=1e-8,
        clipnorm=None,
    ):
        super().__init__(learning_rate, clipnorm)
        for label, value in (("beta_1", beta_1), ("beta_2", beta_2)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{label} must be in [0, 1), got {value}")
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = float(epsilon)
        self._m: Dict[ParamKey, np.ndarray] = {}
        self._v: Dict[ParamKey, np.ndarray] = {}

    def _slots(self):
        return {"m": self._m, "v": self._v}

    def _update(self, key, param, grad):
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
        v = self._v[key]
        m = self.beta_1 * m + (1.0 - self.beta_1) * grad
        v = self.beta_2 * v + (1.0 - self.beta_2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        t = self.iterations
        m_hat = m / (1.0 - self.beta_1**t)
        v_hat = v / (1.0 - self.beta_2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self):
        super().reset()
        self._m.clear()
        self._v.clear()

    def get_config(self):
        config = super().get_config()
        config.update(beta_1=self.beta_1, beta_2=self.beta_2, epsilon=self.epsilon)
        return config


_REGISTRY = {"adam": Adam}


def get_optimizer(spec) -> Optimizer:
    """Resolve an optimizer from a name, config dict, or instance."""
    if isinstance(spec, Optimizer):
        return spec
    if isinstance(spec, str):
        name, config = spec.lower(), {}
    elif isinstance(spec, dict):
        config = dict(spec)
        name = config.pop("name", None)
    else:
        raise TypeError(f"cannot resolve optimizer from {type(spec).__name__}")
    if name not in _REGISTRY:
        raise ValueError(f"unknown optimizer {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**config)
