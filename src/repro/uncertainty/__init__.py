"""Uncertainty quantification: spread, intervals, abstention.

The subsystem that lets the stack say "I don't know": a deep ensemble
produces mean + spread (:mod:`~repro.uncertainty.predictors`),
split-conformal calibration turns spread into finite-sample prediction
intervals (:mod:`~repro.uncertainty.conformal`), and an abstention
policy + serving gate turn intervals — and, given an input check such as
:class:`~repro.ms.plausibility.PlausibilityChecker`, the plausibility of
the spectrum itself — into per-row serve/abstain decisions
(:mod:`~repro.uncertainty.policy`).
"""

from repro.uncertainty.conformal import ConformalCalibrator
from repro.uncertainty.policy import (
    REASON_IMPLAUSIBLE_INPUT,
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
    UncertainPrediction,
    train_ensemble,
    train_member,
)

__all__ = [
    "UncertainPrediction",
    "EnsemblePredictor",
    "EnsembleSpec",
    "train_ensemble",
    "train_member",
    "ConformalCalibrator",
    "AbstentionPolicy",
    "Assessment",
    "UncertaintyGate",
    "REASON_UNCALIBRATED",
    "REASON_NONFINITE_INTERVAL",
    "REASON_IMPLAUSIBLE_INPUT",
    "REASON_INTERVAL_TOO_WIDE",
]
