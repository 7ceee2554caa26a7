"""Abstention policy and the serving gate built on it.

This is the decision layer between a calibrated predictor and the
serving plane: :class:`AbstentionPolicy` turns per-row prediction
intervals into serve/abstain decisions with machine-readable reasons,
:class:`UncertaintyGate` packages predictor + calibrator + policy behind
the single ``assess(matrix)`` call :class:`~repro.serving.service.AnalysisService`
consumes.

The abstention contract: every row gets exactly one decision, a decision
never raises, and anything the gate cannot vouch for — uncalibrated
calibrator, non-finite interval, an input its plausibility check cannot
explain, interval wider than the policy allows — abstains rather than
serving a confident guess.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.uncertainty.conformal import ConformalCalibrator
from repro.uncertainty.predictors import UncertainPrediction

__all__ = [
    "REASON_UNCALIBRATED",
    "REASON_NONFINITE_INTERVAL",
    "REASON_IMPLAUSIBLE_INPUT",
    "REASON_INTERVAL_TOO_WIDE",
    "AbstentionPolicy",
    "Assessment",
    "UncertaintyGate",
]

REASON_UNCALIBRATED = "uncalibrated"
REASON_NONFINITE_INTERVAL = "nonfinite_interval"
REASON_IMPLAUSIBLE_INPUT = "implausible_input"
REASON_INTERVAL_TOO_WIDE = "interval_too_wide"


@dataclass(frozen=True)
class Assessment:
    """Per-row verdicts for one batch: arrays aligned with input rows.

    ``reasons[i]`` is ``None`` for served rows and one of the module's
    ``REASON_*`` constants for abstained rows.
    """

    mean: np.ndarray  # (n, k) point predictions
    std: np.ndarray  # (n, k) raw spread
    lower: np.ndarray  # (n, k) interval lower bounds
    upper: np.ndarray  # (n, k) interval upper bounds
    width: np.ndarray  # (n,) mean interval width per row
    abstain: np.ndarray  # (n,) bool
    reasons: tuple  # (n,) Optional[str]

    @property
    def n_rows(self) -> int:
        return int(self.mean.shape[0])

    def row_interval(self, index: int):
        """``(lower, upper)`` vectors for one row (for Abstained results)."""
        return self.lower[index], self.upper[index]


class AbstentionPolicy:
    """Width thresholds that separate "serve" from "I don't know".

    ``max_width`` bounds the absolute mean interval width per row;
    ``max_relative_width`` bounds width relative to the magnitude of the
    prediction itself (``mean |interval| / max(mean |value|, floor)``),
    which adapts to tasks whose outputs live on different scales.
    Either bound may be ``None`` (disabled); with both disabled the
    policy still abstains on uncalibrated or non-finite intervals — the
    unconditional part of the contract.
    """

    def __init__(
        self,
        max_width: Optional[float] = None,
        max_relative_width: Optional[float] = None,
        relative_floor: float = 1e-6,
    ):
        # ``not (x > 0)`` rather than ``x <= 0``: NaN must be refused too,
        # or ``width > nan`` would silently never abstain.
        if max_width is not None and not max_width > 0:
            raise ValueError(f"max_width must be > 0, got {max_width}")
        if max_relative_width is not None and not max_relative_width > 0:
            raise ValueError(
                f"max_relative_width must be > 0, got {max_relative_width}"
            )
        if not relative_floor > 0:
            raise ValueError(f"relative_floor must be > 0, got {relative_floor}")
        self.max_width = max_width
        self.max_relative_width = max_relative_width
        self.relative_floor = float(relative_floor)

    def assess(
        self,
        prediction: UncertainPrediction,
        calibrator: ConformalCalibrator,
    ) -> Assessment:
        """Decide every row of a batch; never raises per-row."""
        n = prediction.n_rows
        if not calibrator.is_calibrated or calibrator.q_hat == np.inf:
            nan = np.full_like(prediction.mean, np.nan)
            return Assessment(
                mean=prediction.mean,
                std=prediction.std,
                lower=nan,
                upper=nan,
                width=np.full(n, np.inf),
                abstain=np.ones(n, dtype=bool),
                reasons=tuple([REASON_UNCALIBRATED] * n),
            )
        lower, upper = calibrator.interval(prediction)
        width = np.mean(upper - lower, axis=1)
        abstain = np.zeros(n, dtype=bool)
        reasons: List[Optional[str]] = [None] * n
        finite = np.all(np.isfinite(lower), axis=1) & np.all(
            np.isfinite(upper), axis=1
        )
        for i in range(n):
            if not finite[i]:
                abstain[i] = True
                reasons[i] = REASON_NONFINITE_INTERVAL
                continue
            too_wide = (
                self.max_width is not None and width[i] > self.max_width
            )
            if not too_wide and self.max_relative_width is not None:
                scale = max(
                    float(np.mean(np.abs(prediction.mean[i]))),
                    self.relative_floor,
                )
                too_wide = width[i] / scale > self.max_relative_width
            if too_wide:
                abstain[i] = True
                reasons[i] = REASON_INTERVAL_TOO_WIDE
        return Assessment(
            mean=prediction.mean,
            std=prediction.std,
            lower=lower,
            upper=upper,
            width=width,
            abstain=abstain,
            reasons=tuple(reasons),
        )


class UncertaintyGate:
    """Predictor + calibrator + policy behind one ``assess`` call.

    This is the object :class:`~repro.serving.service.AnalysisService`
    takes as its ``uncertainty=`` collaborator.  The abstention rate
    lives in the service (``AnalysisService.stats()["abstention_rate"]``),
    which sees every row's final outcome, not just the gate's verdict.

    ``plausibility`` is an optional input check: any object whose
    ``check_batch(matrix)`` returns one report with a ``plausible`` flag
    per row — in practice a :class:`~repro.ms.plausibility.PlausibilityChecker`.
    A network trained on simulated spectra has no meaningful output for
    a spectrum the task's physics cannot explain, and its spread need not
    say so, so such a row abstains as ``implausible_input``.  Reasons
    take precedence in the order uncalibrated, non-finite interval,
    implausible input, interval too wide; rows already abstaining for
    one of the first two are not checked (the check refuses non-finite
    channels by raising, and a decision never raises).
    """

    def __init__(
        self,
        predictor,
        calibrator: ConformalCalibrator,
        policy: Optional[AbstentionPolicy] = None,
        plausibility=None,
    ):
        self.predictor = predictor
        self.calibrator = calibrator
        self.policy = policy if policy is not None else AbstentionPolicy()
        self.plausibility = plausibility

    def assess(self, matrix: np.ndarray) -> Assessment:
        """Mean + interval + decision for every row of ``matrix``."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {matrix.shape}")
        prediction = self.predictor.predict(matrix)
        assessment = self.policy.assess(prediction, self.calibrator)
        if self.plausibility is None:
            return assessment
        reasons = list(assessment.reasons)
        rows = [
            i for i, reason in enumerate(reasons)
            if reason in (None, REASON_INTERVAL_TOO_WIDE)
        ]
        if not rows:
            return assessment
        abstain = assessment.abstain.copy()
        for i, report in zip(rows, self.plausibility.check_batch(matrix[rows])):
            if not report.plausible:
                abstain[i] = True
                reasons[i] = REASON_IMPLAUSIBLE_INPUT
        return replace(assessment, abstain=abstain, reasons=tuple(reasons))
