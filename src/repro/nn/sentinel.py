"""Training divergence sentinel: detect, roll back, dampen, resume.

The paper's Tool 4 trains whole topology sweeps "without user interaction"
— so nobody is watching when a too-hot learning rate or a poisoned batch
sends the loss to NaN three topologies in.  Left alone, the NaN propagates
into every weight within one optimizer step and the remaining epochs train
garbage to completion.

:class:`DivergenceSentinel` is a :class:`~repro.nn.training.Callback` that
watches every batch for the three signatures of divergence — non-finite
loss, non-finite gradients, runaway loss growth against a smoothed
baseline — and on trigger:

1. rolls the model back to the last-good state: weights and optimizer
   state snapshotted in memory at the start of training and at the end of
   every epoch whose metrics are all finite,
2. halves the learning rate (down to ``min_lr``),
3. asks the training loop to discard and re-run the epoch.

After ``max_rollbacks`` consecutive triggers it gives up with a
:class:`DivergenceError` — the run is genuinely broken, not transient.
Every trigger is recorded as a :class:`SentinelEvent` for post-mortems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.nn.training import Callback
from repro.observability.runtime import counter as _global_counter

__all__ = ["DivergenceError", "SentinelEvent", "DivergenceSentinel"]


class DivergenceError(RuntimeError):
    """Training kept diverging after every permitted rollback."""

    def __init__(self, message: str, events: Optional[List["SentinelEvent"]] = None):
        super().__init__(message)
        self.events = list(events or [])


@dataclass(frozen=True)
class SentinelEvent:
    """One divergence trigger and the recovery action taken."""

    epoch: int
    batch: int
    reason: str
    loss: float
    grad_norm: float
    new_learning_rate: float
    detail: Dict[str, float] = field(default_factory=dict)


class DivergenceSentinel(Callback):
    """Per-batch divergence watchdog with rollback and LR damping.

    Parameters
    ----------
    loss_growth_factor:
        Trigger when a batch loss exceeds this multiple of the smoothed
        (EWMA) batch loss.  ``None`` disables the growth check; non-finite
        loss/gradients always trigger.
    grad_norm_limit:
        Optional absolute trigger on the global gradient norm.
    ewma_smoothing:
        Smoothing constant of the batch-loss EWMA in (0, 1].
    warmup_batches:
        Healthy batches required (after start or after a rollback) before
        the growth/limit checks arm; non-finite checks are always armed.
    lr_factor / min_lr:
        Each rollback multiplies the learning rate by ``lr_factor``
        (default: halving), floored at ``min_lr``.
    max_rollbacks:
        Consecutive-trigger budget; exceeded → :class:`DivergenceError`.
        A healthy completed epoch resets the budget.
    """

    def __init__(
        self,
        loss_growth_factor: Optional[float] = 1e3,
        grad_norm_limit: Optional[float] = None,
        ewma_smoothing: float = 0.3,
        warmup_batches: int = 5,
        lr_factor: float = 0.5,
        min_lr: float = 1e-6,
        max_rollbacks: int = 5,
    ):
        if loss_growth_factor is not None and loss_growth_factor <= 1.0:
            raise ValueError("loss_growth_factor must exceed 1.0")
        if grad_norm_limit is not None and grad_norm_limit <= 0:
            raise ValueError("grad_norm_limit must be positive")
        if not 0.0 < ewma_smoothing <= 1.0:
            raise ValueError("ewma_smoothing must be in (0, 1]")
        if warmup_batches < 1:
            raise ValueError("warmup_batches must be >= 1")
        if not 0.0 < lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if min_lr <= 0:
            raise ValueError("min_lr must be positive")
        if max_rollbacks < 1:
            raise ValueError("max_rollbacks must be >= 1")
        self.loss_growth_factor = (
            float(loss_growth_factor) if loss_growth_factor is not None else None
        )
        self.grad_norm_limit = (
            float(grad_norm_limit) if grad_norm_limit is not None else None
        )
        self.ewma_smoothing = float(ewma_smoothing)
        self.warmup_batches = int(warmup_batches)
        self.lr_factor = float(lr_factor)
        self.min_lr = float(min_lr)
        self.max_rollbacks = int(max_rollbacks)
        self.events: List[SentinelEvent] = []
        self.rollbacks = 0
        self._consecutive_rollbacks = 0
        self._ewma: Optional[float] = None
        self._healthy_batches = 0
        self._snapshot = None
        self._abort_epoch = False

    @property
    def triggered(self) -> bool:
        return bool(self.events)

    # -- callback hooks ----------------------------------------------------

    def on_train_begin(self):
        self.events = []
        self.rollbacks = 0
        self._consecutive_rollbacks = 0
        self._ewma = None
        self._healthy_batches = 0
        self._abort_epoch = False
        self._take_snapshot()

    def on_batch_end(self, epoch, batch, loss):
        loss = float(loss)
        grad_norm = self._grad_norm()
        reason = self._diagnose(loss, grad_norm)
        if reason is None:
            self._healthy_batches += 1
            if self._ewma is None:
                self._ewma = loss
            else:
                self._ewma = (
                    self.ewma_smoothing * loss
                    + (1.0 - self.ewma_smoothing) * self._ewma
                )
            return
        self._roll_back(epoch, batch, reason, loss, grad_norm)

    def on_epoch_end(self, epoch, metrics):
        if all(np.isfinite(v) for v in metrics.values()):
            self._take_snapshot()
            self._consecutive_rollbacks = 0

    # -- detection ---------------------------------------------------------

    def _diagnose(self, loss: float, grad_norm: float) -> Optional[str]:
        if not np.isfinite(loss):
            return f"non-finite batch loss ({loss})"
        if not np.isfinite(grad_norm):
            return "non-finite gradient norm"
        if self._healthy_batches < self.warmup_batches:
            return None
        if self.grad_norm_limit is not None and grad_norm > self.grad_norm_limit:
            return (
                f"gradient norm {grad_norm:.3g} exceeds limit "
                f"{self.grad_norm_limit:.3g}"
            )
        if (
            self.loss_growth_factor is not None
            and self._ewma is not None
            and self._ewma > 0
            and loss > self.loss_growth_factor * self._ewma
        ):
            return (
                f"batch loss {loss:.3g} is {loss / self._ewma:.3g}x the "
                f"smoothed loss {self._ewma:.3g}"
            )
        return None

    def _grad_norm(self) -> float:
        collect = getattr(self.model, "_collect_params_and_grads", None)
        if collect is None:
            return 0.0
        _, grads = collect()
        total = 0.0
        for grad in grads.values():
            total += float(np.sum(grad * grad))
        return float(np.sqrt(total))

    # -- recovery ----------------------------------------------------------

    def _take_snapshot(self):
        optimizer = getattr(self.model, "optimizer", None)
        self._snapshot = (
            self.model.get_weights(),
            optimizer.get_state() if optimizer is not None else None,
        )

    def _roll_back(self, epoch, batch, reason, loss, grad_norm):
        if self._consecutive_rollbacks >= self.max_rollbacks:
            raise DivergenceError(
                f"training diverged again after {self._consecutive_rollbacks} "
                f"consecutive rollbacks (last: {reason}); giving up",
                events=self.events,
            )
        self.rollbacks += 1
        self._consecutive_rollbacks += 1
        _global_counter(
            "training_rollbacks_total", "divergence-sentinel rollbacks"
        ).inc()
        self._restore_last_good()
        new_lr = self._dampen_learning_rate()
        self.events.append(
            SentinelEvent(
                epoch=int(epoch),
                batch=int(batch),
                reason=reason,
                loss=float(loss),
                grad_norm=float(grad_norm),
                new_learning_rate=new_lr,
                detail={"consecutive_rollbacks": self._consecutive_rollbacks},
            )
        )
        # Growth checks re-arm from scratch at the restored state.
        self._ewma = None
        self._healthy_batches = 0
        self._abort_epoch = True

    def _restore_last_good(self):
        weights, opt_state = self._snapshot
        self.model.set_weights(weights)
        optimizer = getattr(self.model, "optimizer", None)
        if optimizer is not None and opt_state is not None:
            optimizer.set_state(opt_state)

    def _dampen_learning_rate(self) -> float:
        optimizer = getattr(self.model, "optimizer", None)
        if optimizer is None:
            return float("nan")
        new_lr = max(optimizer.learning_rate * self.lr_factor, self.min_lr)
        optimizer.learning_rate = new_lr
        return new_lr
