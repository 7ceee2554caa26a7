"""Micro-batching policy and brownout governor for the serving layer.

The queue in front of :class:`~repro.serving.service.AnalysisService` is
an opportunity, not just overhead: the NumPy forward passes behind the
analyzer are batch-vectorized, so N queued spectra cost far less as one
``Sequential.predict`` call than as N.  This module holds the two control
components the batched service mode runs on:

* :class:`BatchingPolicy` — how many requests a worker may coalesce into
  one dispatch and how long it may hold the first request open waiting
  for batchmates.  The max-wait *shrinks* as the queue fills: a deep
  queue fills a batch instantly, so holding adds latency for nothing,
  while an idle service dispatches a lone request after at most
  ``max_wait_s``.
* :class:`BrownoutGovernor` — a load governor that watches queue fill
  and walks the service through declared :class:`BrownoutLevel`
  degradation steps (grow batches → tighten admission deadlines) with
  hysteresis: levels are entered immediately when the fill crosses their
  threshold and left one step at a time only after the fill has stayed
  below the exit threshold for a hold period, so the service does not
  flap at the boundary.  Queue fill is the governor's only signal, so
  it behaves the same whether or not telemetry is enabled.

:func:`batch_analyzer_from_model` builds the batched backend callable
with the byte-identity guarantee the service's contract needs: BLAS
dispatches a single-row matmul to a different kernel (gemv) than a
multi-row one (gemm), which perturbs the last ulp, so a batch of one is
padded to two rows before the forward pass.  Every row then takes the
gemm path and a spectrum's answer is bit-for-bit independent of which
batch it happened to ride in.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "BatchingPolicy",
    "BrownoutLevel",
    "BrownoutTransition",
    "BrownoutGovernor",
    "batch_analyzer_from_model",
]


@dataclass(frozen=True)
class BatchingPolicy:
    """Coalescing limits for the batched worker loop.

    ``max_batch`` bounds one dispatch; ``max_wait_s`` is the longest a
    worker holds the first dequeued request open for batchmates, and the
    effective wait decays linearly to zero as the queue fills (see
    :meth:`wait_for`).
    """

    max_batch: int = 32
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")

    def wait_for(self, queue_depth: int, queue_size: int) -> float:
        """Adaptive hold time: shrinks toward zero under load."""
        if queue_size <= 0:
            return self.max_wait_s
        fill = min(max(queue_depth / queue_size, 0.0), 1.0)
        return self.max_wait_s * (1.0 - fill)

    def cap_for(self, growth: float = 1.0) -> int:
        """Batch-size cap under a brownout growth factor (>= 1 request)."""
        return max(1, int(math.ceil(self.max_batch * float(growth))))


@dataclass(frozen=True)
class BrownoutLevel:
    """One declared degradation step.

    A level activates when queue fill reaches ``enter_fill``.  Its knobs
    state the full service posture at that level (levels do not stack):

    * ``batch_growth`` — multiplier on ``BatchingPolicy.max_batch``;
    * ``deadline_factor`` — multiplier on admission deadlines.
    """

    name: str
    enter_fill: float = math.inf
    batch_growth: float = 1.0
    deadline_factor: float = 1.0

    def __post_init__(self):
        if self.batch_growth < 1.0:
            raise ValueError("batch_growth must be >= 1.0")
        if not 0.0 < self.deadline_factor <= 1.0:
            raise ValueError("deadline_factor must be in (0, 1]")


# The normal-operation posture (level 0).
_LEVEL_0 = BrownoutLevel(name="normal")


@dataclass(frozen=True)
class BrownoutTransition:
    """One governor level change, for post-mortem analysis."""

    at: float
    from_level: int
    to_level: int
    queue_fill: float


class BrownoutGovernor:
    """Hysteretic level walker over queue fill.

    ``observe(fill)`` is the only input; it returns the current level
    index (0 = normal).  Escalation is immediate — the highest level
    whose ``enter_fill`` is reached wins.  De-escalation is one level at
    a time and only after the fill has stayed below ``hysteresis`` × the
    current level's ``enter_fill`` for ``hold_s`` seconds of the
    injectable ``clock``.
    """

    def __init__(
        self,
        levels: Optional[Sequence[BrownoutLevel]] = None,
        hysteresis: float = 0.75,
        hold_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[BrownoutTransition], None]] = None,
    ):
        self.levels: List[BrownoutLevel] = [_LEVEL_0] + list(
            levels if levels is not None else self.default_levels()
        )
        if not 0.0 < hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")
        if hold_s < 0:
            raise ValueError("hold_s must be >= 0")
        self.hysteresis = float(hysteresis)
        self.hold_s = float(hold_s)
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._level = 0
        self._below_since: Optional[float] = None
        self.transitions: List[BrownoutTransition] = []

    @staticmethod
    def default_levels() -> List[BrownoutLevel]:
        """The declared ladder from the design: grow → tighten."""
        return [
            BrownoutLevel(
                name="grow_batch", enter_fill=0.50, batch_growth=2.0
            ),
            BrownoutLevel(
                name="tighten_deadlines",
                enter_fill=0.75,
                batch_growth=2.0,
                deadline_factor=0.5,
            ),
        ]

    # -- state -------------------------------------------------------------

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def active(self) -> BrownoutLevel:
        with self._lock:
            return self.levels[self._level]

    # -- observation -------------------------------------------------------

    def _target_for(self, fill: float) -> int:
        target = 0
        for index, level in enumerate(self.levels[1:], start=1):
            if fill >= level.enter_fill:
                target = index
        return target

    def _calm_below(self, level_index: int, fill: float) -> bool:
        """Is the fill under the exit threshold of ``level_index``?"""
        return fill < self.hysteresis * self.levels[level_index].enter_fill

    def observe(self, fill: float) -> int:
        fill = float(fill)
        now = float(self.clock())
        with self._lock:
            target = self._target_for(fill)
            if target > self._level:
                self._shift(target, now, fill)
            elif self._level > 0 and target < self._level:
                if self._calm_below(self._level, fill):
                    if self._below_since is None:
                        self._below_since = now
                    elif now - self._below_since >= self.hold_s:
                        # One step down per hold period — no cliff dives.
                        self._shift(self._level - 1, now, fill)
                else:
                    self._below_since = None
            else:
                self._below_since = None
            return self._level

    def _shift(self, to_level: int, now: float, fill: float) -> None:
        transition = BrownoutTransition(
            at=now, from_level=self._level, to_level=to_level, queue_fill=fill
        )
        self.transitions.append(transition)
        self._level = to_level
        self._below_since = None
        if self.on_transition is not None:
            self.on_transition(transition)

    def snapshot(self) -> dict:
        """JSON-friendly state for ``AnalysisService.stats()``."""
        with self._lock:
            level = self._level
            transitions = len(self.transitions)
        return {
            "level": level,
            "name": self.levels[level].name,
            "deadline_factor": self.levels[level].deadline_factor,
            "batch_growth": self.levels[level].batch_growth,
            "transitions": transitions,
        }


def batch_analyzer_from_model(model, frozen: Optional[str] = None) -> Callable:
    """A ``batch_analyzer(matrix) -> (n, outputs)`` over a Sequential.

    Pads a batch of one to two rows before the forward pass so every row
    takes BLAS's multi-row (gemm) kernel: single-row matmuls dispatch to
    gemv, which differs in the last ulp.

    The remaining ingredient — row-wise results not depending on *how
    many* other rows share the gemm call — is a property of the BLAS
    build and the layer shapes.  On the reference path it holds for the
    shapes ``TestByteIdentity`` asserts byte for byte; other shapes can
    move the last ulp (the Table-1 CNN does, by up to 8e-17), so probe a
    new model the same way before relying on it.  On the frozen path the
    promise is only the plan's contract: on serve_open's trained float32
    Table-1 CNN at 500 points, 12 of 32 held-out rows answered alone
    differed from the same rows in one 32-row batch, by up to 3e-8.

    Rows are not validated here: the service validates each row once,
    when a worker drains it, before it reaches this callable.

    ``frozen`` opts into the compiled inference path: ``"float32"`` or
    ``"int8"`` freezes the model into an
    :class:`~repro.inference.plan.InferencePlan` and serves it through
    an :class:`~repro.inference.engine.InferenceEngine` — preallocated
    scratch, fused kernels, no per-layer allocation.  If the model has a
    layer the plan compiler does not support, this *silently falls back*
    to the reference float64 path, so callers can request ``frozen=``
    unconditionally.  The returned callable carries ``engine`` (the
    engine, or ``None``) and ``frozen_dtype`` (the effective dtype, or
    ``None`` after fallback) for introspection.  Note the contract
    change: the frozen path promises accuracy within the plan's pinned
    MAE budget versus the reference, not byte-identity with it.
    """
    engine = None
    if frozen is not None:
        from repro.inference import (
            InferenceEngine,
            UnsupportedLayerError,
            freeze,
        )

        try:
            engine = InferenceEngine(freeze(model, dtype=frozen))
        except UnsupportedLayerError:
            pass  # serve the reference path below
    predict = (
        engine.predict if engine is not None
        else functools.partial(model.predict, validate=False)
    )

    def batch_analyzer(matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] == 1:
            padded = np.concatenate([matrix, matrix], axis=0)
            return predict(padded)[:1]
        return predict(matrix)

    batch_analyzer.engine = engine
    batch_analyzer.frozen_dtype = frozen if engine is not None else None
    return batch_analyzer
