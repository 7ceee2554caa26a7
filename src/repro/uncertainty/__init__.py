"""Uncertainty quantification: spread, intervals, abstention.

The subsystem that lets the stack say "I don't know": ensemble and
MC-dropout predictors produce mean + spread
(:mod:`~repro.uncertainty.predictors`), split-conformal calibration
turns spread into finite-sample prediction intervals
(:mod:`~repro.uncertainty.conformal`), an abstention policy + serving
gate turn intervals into per-row serve/abstain decisions
(:mod:`~repro.uncertainty.policy`).
"""

from repro.uncertainty.conformal import ConformalCalibrator
from repro.uncertainty.policy import (
    REASON_INTERVAL_TOO_WIDE,
    REASON_NONFINITE_INTERVAL,
    REASON_UNCALIBRATED,
    AbstentionPolicy,
    Assessment,
    UncertaintyGate,
)
from repro.uncertainty.predictors import (
    EnsemblePredictor,
    EnsembleSpec,
    MCDropoutPredictor,
    UncertainPrediction,
    train_ensemble,
    train_member,
)

__all__ = [
    "UncertainPrediction",
    "EnsemblePredictor",
    "MCDropoutPredictor",
    "EnsembleSpec",
    "train_ensemble",
    "train_member",
    "ConformalCalibrator",
    "AbstentionPolicy",
    "Assessment",
    "UncertaintyGate",
    "REASON_UNCALIBRATED",
    "REASON_NONFINITE_INTERVAL",
    "REASON_INTERVAL_TOO_WIDE",
]
