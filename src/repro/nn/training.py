"""Training loop, history and callbacks.

The paper's Tool 4 runs unattended multi-topology training jobs; the
callback hooks here (epoch begin/end, early stopping, best-weights
restoration) are what the automated training service in
:mod:`repro.core.training_service` builds on.

Progress reporting goes through the stdlib ``repro.training`` logger
(pluggable: swap its handlers to redirect or silence it; a default
stdout handler keeps the historical ``epoch N: ...`` format), and the
loop emits telemetry through the process-global
:mod:`repro.observability` runtime — a ``train.epoch`` span per epoch
with per-batch child spans, train/val loss gauges, and epoch/batch
counters.
"""

from __future__ import annotations

import logging
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers.base import _positive_int
from repro.observability.runtime import get_registry, get_tracer

__all__ = [
    "History",
    "Callback",
    "EarlyStopping",
    "logger",
    "predict_rows",
    "run_training_loop",
]


class _StdoutHandler(logging.Handler):
    """Writes to whatever ``sys.stdout`` is *at emit time*.

    A plain ``StreamHandler(sys.stdout)`` captures the stream object once,
    which breaks under test harnesses that swap ``sys.stdout``; resolving
    it per record keeps ``epoch N: ...`` lines visible wherever ``print``
    would have put them.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stdout.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


logger = logging.getLogger("repro.training")
if not logger.handlers:  # default handler: plain message, print-compatible
    _handler = _StdoutHandler()
    _handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(_handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False


class History:
    """Per-epoch metric record returned by ``Sequential.fit``."""

    def __init__(self):
        self.epochs: List[int] = []
        self.history: Dict[str, List[float]] = {}

    def record(self, epoch: int, metrics: Dict[str, float]) -> None:
        self.epochs.append(epoch)
        for key, value in metrics.items():
            self.history.setdefault(key, []).append(float(value))

    def best(self, metric: str = "val_loss", mode: str = "min") -> Tuple[int, float]:
        """Return (epoch, value) of the best recorded value of ``metric``.

        ``mode`` is ``"min"`` or ``"max"``; anything else raises
        ``ValueError`` rather than silently meaning max.
        """
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        values = self.history.get(metric)
        if not values:
            raise KeyError(f"metric {metric!r} was never recorded")
        arr = np.asarray(values)
        idx = int(np.argmin(arr) if mode == "min" else np.argmax(arr))
        return self.epochs[idx], float(arr[idx])

    def __getitem__(self, key: str) -> List[float]:
        return self.history[key]

    def __contains__(self, key: str) -> bool:
        return key in self.history


class Callback:
    """Base callback; all hooks are optional."""

    def set_model(self, model) -> None:
        self.model = model

    def on_train_begin(self) -> None: ...

    def on_epoch_begin(self, epoch: int) -> None: ...

    def on_batch_end(self, epoch: int, batch: int, loss: float) -> None:
        """After every optimizer step; ``loss`` is the raw batch loss."""

    def on_epoch_end(self, epoch: int, metrics: Dict[str, float]) -> None: ...

    def on_train_end(self) -> None: ...

    @property
    def stop_training(self) -> bool:
        return getattr(self, "_stop", False)

    @property
    def abort_epoch(self) -> bool:
        """Set from ``on_batch_end`` to discard and re-run the current epoch.

        The training loop clears the flag after honouring it.  Used by
        :class:`~repro.nn.sentinel.DivergenceSentinel` to re-run an epoch
        from restored last-good weights after a divergence rollback.
        """
        return getattr(self, "_abort_epoch", False)


class EarlyStopping(Callback):
    """Stop when ``monitor`` has not improved for ``patience`` epochs.

    With ``restore_best_weights=True`` the model is rolled back to its best
    epoch — this mirrors the paper's NMR procedure of selecting "the network
    with the best performance on the experimental validation dataset".
    """

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 10,
        min_delta: float = 0.0,
        restore_best_weights: bool = False,
    ):
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.monitor = monitor
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.restore_best_weights = bool(restore_best_weights)
        self.best_value = np.inf
        self.best_epoch = -1
        self._best_weights = None
        self._wait = 0
        self._stop = False

    def on_train_begin(self):
        self.best_value = np.inf
        self.best_epoch = -1
        self._best_weights = None
        self._wait = 0
        self._stop = False

    def on_epoch_end(self, epoch, metrics):
        value = metrics.get(self.monitor)
        if value is None:
            return
        if value < self.best_value - self.min_delta:
            self.best_value = value
            self.best_epoch = epoch
            self._wait = 0
            if self.restore_best_weights:
                self._best_weights = self.model.get_weights()
        else:
            self._wait += 1
            if self._wait > self.patience:
                self._stop = True

    def on_train_end(self):
        if self.restore_best_weights and self._best_weights is not None:
            self.model.set_weights(self._best_weights)


def predict_rows(
    model, x: np.ndarray, rows: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """``model.predict(x[rows])`` without gathering ``x[rows]`` whole.

    Each ``batch_size``-row chunk of ``rows`` is gathered and predicted in
    turn, the chunks ``predict`` itself forwards, so the result is
    bit-equal to predicting the gathered rows.  ``rows`` must be non-empty.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return np.concatenate([
        model.predict(x[rows[i : i + batch_size]], batch_size=batch_size)
        for i in range(0, len(rows), batch_size)
    ])


def _checked_rows(side: str, rows, n: int) -> np.ndarray:
    """``rows`` as a non-empty 1-D integer index array into ``n`` samples."""
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise IndexError(f"{side} rows must be 1-D, got shape {rows.shape}")
    if rows.size == 0:
        raise ValueError(f"rows leave no {side} samples")
    if not np.issubdtype(rows.dtype, np.integer):
        raise IndexError(f"{side} rows must be integers, got dtype {rows.dtype}")
    bad = (rows < 0) | (rows >= n)
    if np.any(bad):
        raise IndexError(
            f"{side} rows {rows[bad][:5].tolist()} out of range for {n} "
            f"samples (valid: [0, {n}))"
        )
    return rows


def run_training_loop(
    model,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    validation_data: Optional[Tuple[np.ndarray, np.ndarray]],
    shuffle: bool,
    callbacks: List[Callback],
    seed: Optional[int],
    verbose: bool,
    rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> History:
    """Drive epochs/batches for ``Sequential.fit`` (see it for ``rows``)."""
    _positive_int("epochs", epochs)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"x has {x.shape[0]} samples but y has {y.shape[0]}"
        )
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    validation_rows = None
    if rows is None:
        train_rows = np.arange(x.shape[0])
    elif validation_data is not None:
        raise ValueError("pass rows or validation_data, not both")
    else:
        train_rows, validation_rows = rows
        train_rows = _checked_rows("train", train_rows, x.shape[0])
        validation_rows = _checked_rows("validation", validation_rows, x.shape[0])

    rng = np.random.default_rng(seed)
    history = History()
    for callback in callbacks:
        callback.set_model(model)
        callback.on_train_begin()

    registry = get_registry()
    tracer = get_tracer()
    epochs_counter = registry.counter(
        "training_epochs_total", "completed training epochs"
    )
    batches_counter = registry.counter(
        "training_batches_total", "optimizer steps taken"
    )
    aborts_counter = registry.counter(
        "training_epoch_aborts_total",
        "epochs discarded and re-run after a callback rollback",
    )
    loss_gauge = registry.gauge(
        "training_loss", "most recent epoch loss by split"
    )
    epoch_seconds = registry.histogram(
        "training_epoch_seconds", "wall-clock seconds per epoch"
    )

    n = len(train_rows)
    epoch = 0
    while epoch < epochs:
        epoch += 1
        for callback in callbacks:
            callback.on_epoch_begin(epoch)
        start = time.perf_counter()
        epoch_span = tracer.start_span(
            "train.epoch", attributes={"epoch": epoch}
        )
        order = rng.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        aborted = False
        for batch_index, i in enumerate(range(0, n, batch_size)):
            batch = train_rows[order[i : i + batch_size]]
            with tracer.start_span(
                "train.batch", parent=epoch_span,
                attributes={"batch": batch_index},
            ) as batch_span:
                batch_loss = model.train_on_batch(x[batch], y[batch])
                batch_span.set_attribute("loss", float(batch_loss))
            epoch_loss += batch_loss * len(batch)
            batches_counter.inc()
            for callback in callbacks:
                callback.on_batch_end(epoch, batch_index, batch_loss)
            if any(callback.abort_epoch for callback in callbacks):
                aborted = True
                break
        if aborted:
            # A callback (the divergence sentinel) rolled the model back:
            # discard this epoch's partial metrics and re-run the epoch.
            # The re-run draws a fresh shuffle permutation.
            for callback in callbacks:
                callback._abort_epoch = False
            aborts_counter.inc()
            epoch_span.set_attribute("aborted", True)
            epoch_span.end(status="error: rollback")
            epoch -= 1
            continue
        metrics = {"loss": epoch_loss / n}
        loss_gauge.set(metrics["loss"], split="train")
        if validation_rows is not None:
            metrics["val_loss"] = model.loss.value(
                predict_rows(model, x, validation_rows), y[validation_rows]
            )
        elif validation_data is not None:
            metrics["val_loss"] = model.evaluate(*validation_data)
        if "val_loss" in metrics:
            loss_gauge.set(metrics["val_loss"], split="val")
        metrics["epoch_seconds"] = time.perf_counter() - start
        epoch_seconds.observe(metrics["epoch_seconds"])
        epochs_counter.inc()
        epoch_span.set_attribute("loss", metrics["loss"])
        epoch_span.end()
        history.record(epoch, metrics)
        if verbose:
            parts = ", ".join(f"{k}={v:.6f}" for k, v in metrics.items())
            logger.info("epoch %4d/%d: %s", epoch, epochs, parts)
        stop = False
        for callback in callbacks:
            callback.on_epoch_end(epoch, metrics)
            stop = stop or callback.stop_training
        if stop:
            break

    for callback in callbacks:
        callback.on_train_end()
    return history
