"""Split-conformal calibration: spread → finite-sample intervals.

Raw ensemble spread is a useful *ordering* of difficulty but
carries no coverage promise.  Split conformal fixes that with one held
out calibration set and no distributional assumptions: compute each
calibration row's normalized nonconformity score

    s_i = max_j |y_ij - mean_ij| / (std_ij + gamma)

take ``q_hat`` as the ``ceil((n + 1) * (1 - alpha)) / n`` empirical
quantile of the scores, and predict the interval

    mean_j -/+ q_hat * (std_j + gamma)

For exchangeable data the interval covers the whole output row with
probability >= ``1 - alpha`` — a finite-sample guarantee, not an
asymptotic one.  ``gamma`` floors the spread so rows where members
happen to agree exactly still get a nonzero-width interval.

A calibrator is not durable state: it is refitted from its
calibration set, and :meth:`report` is its JSON-friendly summary.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.uncertainty.predictors import UncertainPrediction

__all__ = ["ConformalCalibrator"]


class ConformalCalibrator:
    """Split-conformal interval calibration over mean + spread."""

    def __init__(self, alpha: float = 0.1, gamma: float = 1e-3):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not gamma > 0.0:  # also refuses NaN
            raise ValueError(f"gamma must be > 0, got {gamma}")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.q_hat: Optional[float] = None
        self.n_calibration = 0

    @property
    def is_calibrated(self) -> bool:
        return self.q_hat is not None

    # -- fitting -------------------------------------------------------------

    def calibrate(self, prediction: UncertainPrediction, y: np.ndarray) -> float:
        """Fit ``q_hat`` from calibration predictions and true labels.

        With fewer than ``ceil((n + 1) * (1 - alpha))`` rows the exact
        finite-sample quantile does not exist and ``q_hat`` is ``inf`` —
        honest refusal to promise coverage the sample cannot support
        (every downstream interval is infinite, so the abstention policy
        refuses everything until a real calibration lands).
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != prediction.mean.shape:
            raise ValueError(
                f"labels shape {y.shape} does not match predictions "
                f"{prediction.mean.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("calibration labels must be finite")
        # One NaN score would make q_hat NaN: "calibrated", yet every
        # later interval non-finite.
        if not (
            np.all(np.isfinite(prediction.mean))
            and np.all(np.isfinite(prediction.std))
        ):
            raise ValueError("calibration predictions must be finite")
        n = prediction.n_rows
        if n < 1:
            raise ValueError("calibration set must be non-empty")
        scores = self._scores(prediction, y)
        rank = math.ceil((n + 1) * (1.0 - self.alpha))
        if rank > n:
            self.q_hat = math.inf
        else:
            self.q_hat = float(np.sort(scores)[rank - 1])
        self.n_calibration = n
        return self.q_hat

    def _scores(self, prediction: UncertainPrediction, y: np.ndarray) -> np.ndarray:
        residual = np.abs(y - prediction.mean)
        return np.max(residual / (prediction.std + self.gamma), axis=1)

    # -- intervals -----------------------------------------------------------

    def interval(
        self, prediction: UncertainPrediction
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``(lower, upper)`` prediction intervals."""
        if not self.is_calibrated:
            raise RuntimeError("calibrate() before requesting intervals")
        margin = self.q_hat * (prediction.std + self.gamma)
        return prediction.mean - margin, prediction.mean + margin

    def width(self, prediction: UncertainPrediction) -> np.ndarray:
        """Per-row mean interval width (averaged over outputs)."""
        lower, upper = self.interval(prediction)
        return np.mean(upper - lower, axis=1)

    def coverage(self, prediction: UncertainPrediction, y: np.ndarray) -> float:
        """Fraction of rows whose *entire* output vector is covered."""
        y = np.asarray(y, dtype=np.float64)
        lower, upper = self.interval(prediction)
        covered = np.all((y >= lower) & (y <= upper), axis=1)
        return float(np.mean(covered))

    def report(self) -> dict:
        """Human-facing calibration summary (CLI table rows)."""
        return {
            "alpha": self.alpha,
            "nominal_coverage": 1.0 - self.alpha,
            "gamma": self.gamma,
            "q_hat": self.q_hat,
            "n_calibration": self.n_calibration,
            "calibrated": self.is_calibrated,
        }
