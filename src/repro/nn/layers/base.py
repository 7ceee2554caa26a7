"""Layer base class.

Layers follow a two-phase lifecycle: they are constructed with
hyperparameters only, then ``build(input_shape, rng)`` allocates weights
once the input shape is known (shapes exclude the batch axis).
``forward(training=True)`` caches whatever ``backward`` needs;
``forward(training=False)`` stores nothing, so inference keeps no
activations and concurrent inference calls share no state.  ``backward``
takes the cache (clearing it), fills ``self.grads`` and returns the
gradient with respect to the layer input.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["Layer"]


class Layer:
    """Base class for all layers."""

    def __init__(self):
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        # name -> parameter array; populated by build() for trainable layers.
        self.params: Dict[str, np.ndarray] = {}
        # name -> gradient array; populated by backward().
        self.grads: Dict[str, np.ndarray] = {}
        self.trainable = True
        # What backward() reads; set by forward(training=True) only and
        # released by the backward() that consumes it.
        self._cache = None

    # -- lifecycle ---------------------------------------------------------

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters and set ``output_shape``.

        Subclasses must call this (or replicate it) to record shapes and
        flip ``built``.
        """
        self.input_shape = tuple(input_shape)
        self.output_shape = self.compute_output_shape(self.input_shape)
        self.built = True

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)

    # -- computation -------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- bookkeeping -------------------------------------------------------

    def count_params(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def get_config(self) -> dict:
        """Hyperparameter config sufficient to re-instantiate the layer."""
        return {}

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        shape = self.output_shape if self.built else "unbuilt"
        return f"<{self.name} output_shape={shape} params={self.count_params()}>"

    def _take_cache(self):
        """Return and clear what the last ``forward(training=True)`` stored."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{self.name}.backward() needs a preceding "
                "forward(x, training=True); inference forwards keep nothing"
            )
        return cache

    def _check_built(self) -> None:
        if not self.built:
            raise RuntimeError(
                f"{self.name} used before build(); add it to a Sequential "
                "model and call build() or fit() first"
            )
