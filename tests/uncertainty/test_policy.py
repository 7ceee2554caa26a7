"""Unit tests for the abstention policy and serving gate."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.uncertainty import (
    REASON_IMPLAUSIBLE_INPUT,
    REASON_INTERVAL_TOO_WIDE,
    REASON_NONFINITE_INTERVAL,
    REASON_UNCALIBRATED,
    AbstentionPolicy,
    ConformalCalibrator,
    UncertaintyGate,
    UncertainPrediction,
)


def _prediction(stds, means=None):
    stds = np.asarray(stds, dtype=np.float64)
    n = len(stds)
    std = np.stack([stds, stds], axis=1)
    if means is None:
        mean = np.ones((n, 2))
    else:
        means = np.asarray(means, dtype=np.float64)
        mean = np.stack([means, means], axis=1)
    return UncertainPrediction(mean=mean, std=std)


def _calibrated(q_hat=1.0, alpha=0.1, gamma=1e-3):
    calibrator = ConformalCalibrator(alpha=alpha, gamma=gamma)
    calibrator.q_hat = float(q_hat)
    calibrator.n_calibration = 100
    return calibrator


class _SpreadPredictor:
    """std = |first channel| per row; mean = row sum — fully scriptable."""

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        total = x.sum(axis=1)
        spread = np.abs(x[:, 0])
        return UncertainPrediction(
            mean=np.stack([total, total], axis=1),
            std=np.stack([spread, spread], axis=1),
        )


class _LastChannelCheck:
    """Plausibility stub: a row is implausible when its last channel > 1.

    Like :class:`~repro.ms.plausibility.PlausibilityChecker`, it raises
    on a non-finite channel; it records every batch it was asked about.
    """

    def __init__(self):
        self.checked = []

    def check_batch(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if not np.isfinite(matrix).all():
            raise ValueError("non-finite channel")
        self.checked.append(matrix.copy())
        return [SimpleNamespace(plausible=row[-1] <= 1.0) for row in matrix]


class TestAbstentionPolicy:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AbstentionPolicy(max_width=0.0)
        with pytest.raises(ValueError):
            AbstentionPolicy(max_relative_width=-1.0)
        with pytest.raises(ValueError):
            AbstentionPolicy(relative_floor=0.0)
        # NaN compares False both ways: it must not slip past as "no bound".
        for field in ("max_width", "max_relative_width", "relative_floor"):
            with pytest.raises(ValueError):
                AbstentionPolicy(**{field: float("nan")})

    def test_uncalibrated_abstains_everything(self):
        assessment = AbstentionPolicy().assess(
            _prediction([0.1, 0.2]), ConformalCalibrator()
        )
        assert assessment.abstain.all()
        assert assessment.reasons == (REASON_UNCALIBRATED,) * 2
        assert np.isinf(assessment.width).all()
        assert np.isnan(assessment.lower).all()

    def test_infinite_q_hat_abstains_everything(self):
        assessment = AbstentionPolicy().assess(
            _prediction([0.1]), _calibrated(q_hat=np.inf)
        )
        assert assessment.abstain.all()
        assert assessment.reasons == (REASON_UNCALIBRATED,)

    def test_nonfinite_interval_abstains_only_its_row(self):
        assessment = AbstentionPolicy().assess(
            _prediction([0.1, np.inf]), _calibrated()
        )
        assert assessment.abstain.tolist() == [False, True]
        assert assessment.reasons[1] == REASON_NONFINITE_INTERVAL

    def test_max_width_separates_rows(self):
        # width = 2 * q_hat * (std + gamma) averaged over outputs.
        assessment = AbstentionPolicy(max_width=1.0).assess(
            _prediction([0.1, 5.0]), _calibrated(q_hat=1.0)
        )
        assert assessment.abstain.tolist() == [False, True]
        assert assessment.reasons[0] is None
        assert assessment.reasons[1] == REASON_INTERVAL_TOO_WIDE
        np.testing.assert_allclose(
            assessment.width,
            [2 * (0.1 + 1e-3), 2 * (5.0 + 1e-3)],
        )

    def test_relative_width_scales_with_prediction_magnitude(self):
        # Same absolute width, very different prediction scales.
        prediction = _prediction([1.0, 1.0], means=[100.0, 0.01])
        assessment = AbstentionPolicy(max_relative_width=0.5).assess(
            prediction, _calibrated(q_hat=1.0)
        )
        # Row 0: width ~2 against scale 100 → relative 0.02 → serve.
        # Row 1: width ~2 against scale 0.01 → relative 200 → abstain.
        assert assessment.abstain.tolist() == [False, True]

    def test_no_bounds_serves_every_finite_row(self):
        assessment = AbstentionPolicy().assess(
            _prediction([1000.0]), _calibrated()
        )
        assert not assessment.abstain.any()

    def test_row_interval(self):
        assessment = AbstentionPolicy(max_width=1.0).assess(
            _prediction([5.0]), _calibrated()
        )
        lower, upper = assessment.row_interval(0)
        np.testing.assert_allclose(lower, assessment.lower[0])
        np.testing.assert_allclose(upper, assessment.upper[0])


class TestUncertaintyGate:
    def test_assess_requires_2d(self):
        gate = UncertaintyGate(_SpreadPredictor(), _calibrated())
        with pytest.raises(ValueError):
            gate.assess(np.ones(4))

    def test_decisions_follow_the_policy(self):
        gate = UncertaintyGate(
            _SpreadPredictor(),
            _calibrated(q_hat=1.0),
            policy=AbstentionPolicy(max_width=1.0),
        )
        matrix = np.array(
            [[0.1, 0.2, 0.3], [5.0, 0.0, 0.0]], dtype=np.float64
        )
        assessment = gate.assess(matrix)
        assert assessment.abstain.tolist() == [False, True]
        np.testing.assert_allclose(assessment.mean[:, 0], matrix.sum(axis=1))

    def test_unchecked_gate_is_the_policy_verdict(self):
        predictor, calibrator = _SpreadPredictor(), _calibrated(q_hat=1.0)
        policy = AbstentionPolicy(max_width=1.0)
        matrix = np.array(
            [[0.1, 0.2, 0.3], [5.0, 0.0, 0.0], [0.3, 2.0, 0.0]]
        )
        gated = UncertaintyGate(predictor, calibrator, policy=policy)
        expected = policy.assess(predictor.predict(matrix), calibrator)
        assessment = gated.assess(matrix)
        assert assessment.reasons == expected.reasons
        for field in ("mean", "std", "lower", "upper", "width", "abstain"):
            np.testing.assert_array_equal(
                getattr(assessment, field), getattr(expected, field)
            )

    def test_implausible_rows_abstain_with_their_interval(self):
        check = _LastChannelCheck()
        gate = UncertaintyGate(
            _SpreadPredictor(),
            _calibrated(q_hat=1.0),
            policy=AbstentionPolicy(max_width=1.0),
            plausibility=check,
        )
        matrix = np.array(
            [
                [0.1, 0.0, 0.5],  # narrow, plausible
                [0.1, 0.0, 2.0],  # narrow, implausible
                [5.0, 0.0, 0.5],  # too wide, plausible
                [5.0, 0.0, 2.0],  # too wide and implausible
            ]
        )
        assessment = gate.assess(matrix)
        assert assessment.reasons == (
            None,
            REASON_IMPLAUSIBLE_INPUT,
            REASON_INTERVAL_TOO_WIDE,
            REASON_IMPLAUSIBLE_INPUT,
        )
        assert assessment.abstain.tolist() == [False, True, True, True]
        assert np.isfinite(assessment.lower).all()
        np.testing.assert_allclose(assessment.mean[:, 0], matrix.sum(axis=1))
        assert len(check.checked) == 1
        np.testing.assert_array_equal(check.checked[0], matrix)

    def test_nonfinite_row_is_not_checked_and_nothing_raises(self):
        check = _LastChannelCheck()
        gate = UncertaintyGate(
            _SpreadPredictor(), _calibrated(), plausibility=check
        )
        matrix = np.array([[0.1, 0.0, 2.0], [0.1, np.nan, 0.5]])
        assessment = gate.assess(matrix)
        assert assessment.reasons == (
            REASON_IMPLAUSIBLE_INPUT,
            REASON_NONFINITE_INTERVAL,
        )
        np.testing.assert_array_equal(check.checked[0], matrix[:1])

    def test_uncalibrated_gate_checks_nothing(self):
        check = _LastChannelCheck()
        gate = UncertaintyGate(
            _SpreadPredictor(), ConformalCalibrator(), plausibility=check
        )
        assessment = gate.assess(np.array([[0.1, 0.0, 2.0]]))
        assert assessment.reasons == (REASON_UNCALIBRATED,)
        assert check.checked == []
