"""Unit tests for split-conformal calibration and its report."""

import math

import numpy as np
import pytest

from repro.uncertainty import ConformalCalibrator, UncertainPrediction


def _unit_prediction(n, k=2):
    """mean 0, std 1 everywhere: scores reduce to max |y| per row."""
    return UncertainPrediction(mean=np.zeros((n, k)), std=np.ones((n, k)))


def _gaussian_case(n, seed, k=2):
    rng = np.random.default_rng(seed)
    return _unit_prediction(n, k), rng.normal(size=(n, k))


class TestConstruction:
    def test_alpha_and_gamma_validated(self):
        with pytest.raises(ValueError):
            ConformalCalibrator(alpha=0.0)
        with pytest.raises(ValueError):
            ConformalCalibrator(alpha=1.0)
        with pytest.raises(ValueError):
            ConformalCalibrator(gamma=0.0)
        with pytest.raises(ValueError):
            ConformalCalibrator(alpha=float("nan"))
        with pytest.raises(ValueError):
            ConformalCalibrator(gamma=float("nan"))

    def test_starts_uncalibrated(self):
        calibrator = ConformalCalibrator()
        assert not calibrator.is_calibrated
        with pytest.raises(RuntimeError):
            calibrator.interval(_unit_prediction(3))


class TestCalibration:
    def test_q_hat_is_the_finite_sample_quantile(self):
        # 9 rows, alpha=0.5: rank = ceil(10 * 0.5) = 5 → the 5th smallest
        # score.  With mean 0 / std 1 and max over one output, the score
        # of row i is |y_i| / (1 + gamma).
        gamma = 1e-3
        y = np.array([[v] for v in [1.0, -2.0, 3.0, -4.0, 5.0,
                                    -6.0, 7.0, -8.0, 9.0]])
        calibrator = ConformalCalibrator(alpha=0.5, gamma=gamma)
        q_hat = calibrator.calibrate(_unit_prediction(9, k=1), y)
        assert q_hat == pytest.approx(5.0 / (1.0 + gamma))
        assert calibrator.n_calibration == 9

    def test_small_sample_yields_infinite_q_hat(self):
        # 5 rows at alpha=0.05: rank = ceil(6 * 0.95) = 6 > 5 — the exact
        # quantile does not exist, so the calibrator refuses to promise.
        calibrator = ConformalCalibrator(alpha=0.05)
        prediction, y = _gaussian_case(5, seed=0)
        assert calibrator.calibrate(prediction, y) == math.inf
        lower, upper = calibrator.interval(prediction)
        assert np.isinf(lower).all() and np.isinf(upper).all()

    def test_rejects_mismatched_or_nonfinite_labels(self):
        calibrator = ConformalCalibrator()
        prediction = _unit_prediction(4)
        with pytest.raises(ValueError):
            calibrator.calibrate(prediction, np.zeros((4, 3)))
        bad = np.zeros((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            calibrator.calibrate(prediction, bad)

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_nonfinite_prediction_leaves_the_calibrator_uncalibrated(
        self, field
    ):
        # One NaN among 9 rows at alpha=0.1 used to make q_hat NaN while
        # is_calibrated read True, so every later row abstained as
        # nonfinite_interval instead of uncalibrated.
        prediction, y = _gaussian_case(9, seed=0)
        poisoned = getattr(prediction, field).copy()
        poisoned[4, 1] = np.nan
        prediction = UncertainPrediction(
            **{"mean": prediction.mean, "std": prediction.std, field: poisoned}
        )
        calibrator = ConformalCalibrator(alpha=0.1)
        with pytest.raises(ValueError):
            calibrator.calibrate(prediction, y)
        assert not calibrator.is_calibrated

    def test_coverage_meets_the_finite_sample_guarantee(self):
        # Exchangeable calibration/test splits: empirical coverage on a
        # fresh draw should sit at or above 1 - alpha, modulo noise.
        calibrator = ConformalCalibrator(alpha=0.1)
        calibrator.calibrate(*_gaussian_case(400, seed=1))
        test_prediction, test_y = _gaussian_case(400, seed=2)
        coverage = calibrator.coverage(test_prediction, test_y)
        assert coverage >= 0.85

    def test_interval_and_width_shape(self):
        calibrator = ConformalCalibrator(alpha=0.2)
        calibrator.calibrate(*_gaussian_case(100, seed=3))
        prediction = _unit_prediction(7, k=2)
        lower, upper = calibrator.interval(prediction)
        assert lower.shape == upper.shape == (7, 2)
        assert (upper > lower).all()
        width = calibrator.width(prediction)
        assert width.shape == (7,)
        np.testing.assert_allclose(width, np.mean(upper - lower, axis=1))

    def test_wider_spread_means_wider_interval(self):
        calibrator = ConformalCalibrator(alpha=0.1)
        calibrator.calibrate(*_gaussian_case(100, seed=4))
        narrow = UncertainPrediction(
            mean=np.zeros((1, 2)), std=np.full((1, 2), 0.1)
        )
        wide = UncertainPrediction(
            mean=np.zeros((1, 2)), std=np.full((1, 2), 5.0)
        )
        assert calibrator.width(wide)[0] > calibrator.width(narrow)[0]


class TestPersistence:
    """The calibrator persists nothing itself; its report is the one
    form it leaves the process in."""

    def test_report_is_json_friendly(self):
        calibrator = ConformalCalibrator(alpha=0.1)
        report = calibrator.report()
        assert report["calibrated"] is False
        assert report["nominal_coverage"] == pytest.approx(0.9)
