"""The :class:`Sequential` model container.

A deliberately Keras-flavoured API (``compile``/``fit``/``predict``/
``evaluate``/``summary``) so the paper's workflow descriptions map onto this
code one-to-one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.losses import Loss, get_loss
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.nn.training import Callback, History, run_training_loop

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers."""

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "model"):
        self.layers: List[Layer] = []
        self.name = str(name)
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.loss: Optional[Loss] = None
        self.optimizer: Optional[Optimizer] = None
        self._rng = np.random.default_rng(0)
        for layer in layers or []:
            self.add(layer)

    # -- construction ------------------------------------------------------

    def add(self, layer: Layer) -> "Sequential":
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")
        if self.built:
            raise RuntimeError("cannot add layers after the model is built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: Tuple[int, ...], seed: Optional[int] = None) -> "Sequential":
        """Allocate all layer weights for inputs of ``input_shape``.

        ``input_shape`` excludes the batch axis, e.g. ``(1000,)`` for a raw
        spectrum or ``(5, 1700)`` for an LSTM window.
        """
        if not self.layers:
            raise RuntimeError("cannot build an empty model")
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            layer.build(shape, self._rng)
            shape = layer.output_shape
        self.built = True
        return self

    def compile(self, optimizer="adam", loss="mae") -> "Sequential":
        self.optimizer = get_optimizer(optimizer)
        self.loss = get_loss(loss)
        return self

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Fill the grads of every layer from the loss gradient ``grad``.

        Backpropagation stops at the lowest layer with trainable params:
        it is called with ``input_grad=False``, since no layer reads that
        gradient.  The layers below it (a Reshape, frozen
        layers) are not backpropagated; their caches are cleared.
        """
        lowest = next(
            (i for i, layer in enumerate(self.layers) if layer.trainable and layer.params),
            len(self.layers),
        )
        for i in range(len(self.layers) - 1, lowest, -1):
            grad = self.layers[i].backward(grad)
        if lowest < len(self.layers):
            self.layers[lowest].backward(grad, input_grad=False)
        for layer in self.layers[:lowest]:
            layer.clear_cache()

    def predict(
        self, x: np.ndarray, batch_size: int = 256, validate: bool = True
    ) -> np.ndarray:
        """Inference in mini-batches (keeps im2col memory bounded).

        With ``validate=True`` (the default) the input is gated at this
        boundary: it must be numeric, finite, and match the model's
        ``input_shape`` on the trailing axes — otherwise a
        :class:`~repro.reliability.validation.ValidationError` subclass is
        raised instead of silently propagating NaNs into the prediction.
        """
        self._require_built()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if validate:
            from repro.reliability.validation import validate_batch

            x = validate_batch(x, feature_shape=self.input_shape, field="x")
        else:
            x = np.asarray(x, dtype=np.float64)
        if x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        chunks = [
            self.forward(x[i : i + batch_size], training=False)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimizer step on a single batch; returns the batch loss."""
        self._require_compiled()
        pred = self.forward(x, training=True)
        loss_value = self.loss.value(pred, y)
        self.backward(self.loss.gradient(pred, y))
        params, grads = self._collect_params_and_grads()
        self.optimizer.apply(params, grads)
        return loss_value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        shuffle: bool = True,
        callbacks: Optional[Sequence[Callback]] = None,
        seed: Optional[int] = None,
        verbose: bool = False,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> History:
        """Standard epoch/mini-batch training loop; returns a History.

        ``rows=(train_rows, validation_rows)``, in place of
        ``validation_data``, holds row indices into ``x`` and ``y``: the
        model trains on ``x[train_rows]`` and validates on
        ``x[validation_rows]`` without either subset ever being gathered
        whole.  Each mini-batch is gathered by index and the validation
        loss is predicted over 256-row chunks, so weights and history are
        bit-equal to fitting the gathered subsets.  Both index arrays must
        be non-empty (else ``ValueError``) and in ``[0, len(x))`` (else
        ``IndexError``).
        """
        self._require_compiled()
        return run_training_loop(
            self,
            np.asarray(x, dtype=np.float64),
            np.asarray(y, dtype=np.float64),
            epochs=epochs,
            batch_size=batch_size,
            validation_data=validation_data,
            shuffle=shuffle,
            callbacks=list(callbacks or []),
            seed=seed,
            verbose=verbose,
            rows=rows,
        )

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Mean loss over a dataset."""
        self._require_compiled()
        pred = self.predict(x, batch_size=batch_size)
        return self.loss.value(pred, np.asarray(y, dtype=np.float64))

    # -- weights -----------------------------------------------------------

    def get_weights(self) -> List[np.ndarray]:
        self._require_built()
        weights = []
        for layer in self.layers:
            for key in sorted(layer.params):
                weights.append(layer.params[key].copy())
        return weights

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        self._require_built()
        expected = sum(len(layer.params) for layer in self.layers)
        if len(weights) != expected:
            raise ValueError(f"expected {expected} weight arrays, got {len(weights)}")
        idx = 0
        for layer in self.layers:
            for key in sorted(layer.params):
                value = np.asarray(weights[idx], dtype=np.float64)
                if value.shape != layer.params[key].shape:
                    raise ValueError(
                        f"{layer.name}.{key}: shape {value.shape} != "
                        f"{layer.params[key].shape}"
                    )
                layer.params[key] = value.copy()
                idx += 1

    def _collect_params_and_grads(self) -> Tuple[Dict, Dict]:
        params, grads = {}, {}
        for i, layer in enumerate(self.layers):
            if not layer.trainable:
                continue
            for key, value in layer.params.items():
                params[(i, key)] = value
                if key in layer.grads:
                    grads[(i, key)] = layer.grads[key]
        return params, grads

    # -- introspection -----------------------------------------------------

    def count_params(self) -> int:
        self._require_built()
        return sum(layer.count_params() for layer in self.layers)

    def summary(self) -> str:
        """Return a printable per-layer summary table."""
        self._require_built()
        lines = [f"Model: {self.name}", "-" * 58]
        lines.append(f"{'Layer':<24}{'Output shape':<20}{'Params':>12}")
        lines.append("-" * 58)
        for layer in self.layers:
            shape = str(tuple(layer.output_shape))
            lines.append(f"{layer.name:<24}{shape:<20}{layer.count_params():>12,}")
        lines.append("-" * 58)
        lines.append(f"Total params: {self.count_params():,}")
        return "\n".join(lines)

    def get_config(self) -> dict:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "layers": [
                {"class": layer.name, "config": layer.get_config()}
                for layer in self.layers
            ],
        }

    def _require_built(self):
        if not self.built:
            raise RuntimeError("model is not built; call build(input_shape) first")

    def _require_compiled(self):
        self._require_built()
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("model is not compiled; call compile() first")

    def __repr__(self):
        status = "built" if self.built else "unbuilt"
        return f"<Sequential {self.name!r} layers={len(self.layers)} {status}>"
