"""Gradient-descent optimizer (Adam).

One optimizer instance drives a whole :class:`Sequential` model: its
``apply`` takes the model's params and grads keyed by ``(layer_index,
param_name)``.  Adam keeps each moment as one flat vector over every
parameter and steps it with one elementwise pass; its per-key slots
(``get_state``/``set_state``, checkpoints) are views into those vectors,
so checkpoints keep their per-key shape.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers.base import _positive_rate

__all__ = ["Optimizer", "Adam", "get_optimizer"]

ParamKey = Tuple[int, str]


class Optimizer:
    """Base class: step count, gradient clipping and per-parameter state
    slots keyed by ``(layer_index, name)``; subclasses implement
    ``apply(params, grads)``."""

    name = "optimizer"

    def __init__(self, learning_rate: float = 0.001, clipnorm: float = None):
        self.learning_rate = _positive_rate("learning_rate", learning_rate)
        if clipnorm is not None and not clipnorm > 0:
            raise ValueError(f"clipnorm must be positive, got {clipnorm}")
        self.clipnorm = float(clipnorm) if clipnorm is not None else None
        self.iterations = 0

    def _maybe_clip(self, grads):
        if self.clipnorm is None:
            return grads
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > self.clipnorm and total > 0:
            scale = self.clipnorm / total
            return {k: g * scale for k, g in grads.items()}
        return grads

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
        given = dict(state.get("slots", {}))
        unknown = set(given) - set(self._slots())
        if unknown:
            raise ValueError(f"unknown optimizer state slots: {sorted(unknown)}")
        self.iterations = int(state["iterations"])
        self._restore_slots({
            name: {
                key: np.array(value, dtype=np.float64, copy=True)
                for key, value in given.get(name, {}).items()
            }
            for name in self._slots()
        })

    def _restore_slots(self, slots: Dict[str, Dict[ParamKey, np.ndarray]]) -> None:
        """Replace the per-parameter state with ``slots``."""
        for name, slot in self._slots().items():
            slot.clear()
            slot.update(slots[name])

    def get_config(self) -> dict:
        return {
            "name": self.name,
            "learning_rate": self.learning_rate,
            "clipnorm": self.clipnorm,
        }


class Adam(Optimizer):
    """Adam (Kingma & Ba): bias-corrected first/second moment estimates.

    ``m`` and ``v`` are each one flat float64 vector.  The per-key slots
    (``_m[key]``, ``_v[key]``, ``get_state``) are views into them, built
    on demand.  The vectors hold the stepped keys first, in ``grads``
    order, then any keys with state that the last step's ``grads`` lacked
    (a frozen layer keeps its moments); a step whose keys differ from
    that layout re-lays the vectors out first.
    """

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
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = float(epsilon)
        self.reset()

    @property
    def _m(self) -> Dict[ParamKey, np.ndarray]:
        return self._views(self._flat_m)

    @property
    def _v(self) -> Dict[ParamKey, np.ndarray]:
        return self._views(self._flat_v)

    def _views(self, flat: np.ndarray) -> Dict[ParamKey, np.ndarray]:
        return {
            key: flat[offset : offset + math.prod(shape)].reshape(shape)
            for key, (offset, shape) in self._layout.items()
        }

    def _slots(self):
        return {"m": self._m, "v": self._v}

    def apply(self, params: Dict[ParamKey, np.ndarray], grads: Dict[ParamKey, np.ndarray]) -> None:
        """Update ``params`` in place from ``grads``."""
        self.iterations += 1
        grads = self._maybe_clip(grads)
        if not grads:
            return
        if tuple(grads) != self._stepped:
            shapes = {key: np.shape(grad) for key, grad in grads.items()}
            for key, (_, shape) in self._layout.items():
                shapes.setdefault(key, shape)
            self._lay_out(shapes, self._m, self._v)
            self._stepped = tuple(grads)
        g = np.concatenate([np.ravel(grad) for grad in grads.values()])
        n = g.size
        # Each step writes fresh moment vectors, as the per-key update
        # wrote fresh arrays: moments updated in place for the life of a
        # fit raised serve_open's peak RSS by 1-2 MB (malloc heap layout).
        m = self.beta_1 * self._flat_m
        v = self.beta_2 * self._flat_v
        if n < m.size:  # keys this step leaves out keep their moments
            m[n:], v[n:] = self._flat_m[n:], self._flat_v[n:]
        self._flat_m, self._flat_v = m, v
        m, v = m[:n], v[:n]
        # m = beta_1 * m + (1 - beta_1) * g
        scratch = (1.0 - self.beta_1) * g
        m += scratch
        # v = beta_2 * v + (1 - beta_2) * g * g
        np.multiply(1.0 - self.beta_2, g, out=scratch)
        scratch *= g
        v += scratch
        # step = learning_rate * m_hat / (sqrt(v_hat) + epsilon)
        t = self.iterations
        np.divide(v, 1.0 - self.beta_2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.epsilon
        step = np.divide(m, 1.0 - self.beta_1**t, out=g)
        step *= self.learning_rate
        step /= scratch
        offset = 0
        for key, grad in grads.items():
            param = params[key]
            param -= step[offset : offset + grad.size].reshape(param.shape)
            offset += grad.size

    def _lay_out(self, shapes: Dict[ParamKey, Tuple[int, ...]], m: Dict, v: Dict) -> None:
        """New flat moments in ``shapes`` order, holding ``m`` and ``v``
        (zeros for a key they lack).  A key already in the layout keeps its
        place in the slot order; a new one is appended."""
        offset = 0
        for key, shape in shapes.items():
            self._layout[key] = (offset, shape)
            offset += math.prod(shape)
        self._flat_m, self._flat_v = np.zeros(offset), np.zeros(offset)
        for views, given in ((self._m, m), (self._v, v)):
            for key, view in views.items():
                if key in given:
                    view[...] = given[key]

    def _restore_slots(self, slots):
        m, v = slots["m"], slots["v"]
        self._layout = {}
        self._lay_out({key: value.shape for slot in (m, v) for key, value in slot.items()}, m, v)
        self._stepped = None

    def reset(self):
        super().reset()
        # key -> (offset, shape) in the flat moments, in slot order.
        self._layout: Dict[ParamKey, Tuple[int, Tuple[int, ...]]] = {}
        self._flat_m = self._flat_v = np.zeros(0)
        # The keys of the flat moments' stepped prefix, in order; ``None``
        # until a step lays them out.
        self._stepped: Optional[Tuple[ParamKey, ...]] = None

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
