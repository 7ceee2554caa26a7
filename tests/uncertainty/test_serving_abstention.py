"""Abstained as a serving outcome: gate wiring through AnalysisService.

Covers the single-request path, the per-row batched drain, metrics and
exactly-once accounting, and the invariant that a gated service never
invokes the analyzer it wraps.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.observability import MetricsRegistry, scoped
from repro.serving import (
    Abstained,
    AnalysisService,
    BatchingPolicy,
    CircuitBreaker,
    Completed,
)
from repro.serving.circuit import CLOSED
from repro.uncertainty import (
    REASON_IMPLAUSIBLE_INPUT,
    REASON_INTERVAL_TOO_WIDE,
    REASON_UNCALIBRATED,
    AbstentionPolicy,
    ConformalCalibrator,
    UncertaintyGate,
    UncertainPrediction,
)

def _service(*args, **kwargs):
    """AnalysisService with an isolated metrics registry per test."""
    kwargs.setdefault("registry", MetricsRegistry())
    return AnalysisService(*args, **kwargs)


LENGTH = 8


def _spectrum(first=0.1, fill=0.01):
    data = np.full(LENGTH, fill)
    data[0] = first
    return data


def _analyzer(data):
    """Ungated fallback backend — recognizably NOT the gate's answer."""
    return np.array([-1.0, -1.0])


class SpreadPredictor:
    """std = |first channel| per row; mean = row sum, twice.

    first channel ~0.1 → width ~0.2 (served); first channel 5 → width
    ~10 (abstained under max_width=1).
    """

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        total = x.sum(axis=1)
        spread = np.abs(x[:, 0])
        return UncertainPrediction(
            mean=np.stack([total, total], axis=1),
            std=np.stack([spread, spread], axis=1),
        )


class LastChannelCheck:
    """Plausibility stub: a spectrum whose last channel exceeds 1 is
    implausible."""

    def check_batch(self, matrix):
        return [SimpleNamespace(plausible=row[-1] <= 1.0) for row in matrix]


def _calibrated(q_hat=1.0):
    calibrator = ConformalCalibrator(alpha=0.1)
    calibrator.q_hat = float(q_hat)
    calibrator.n_calibration = 100
    return calibrator


def _gate(calibrator=None, plausibility=None):
    return UncertaintyGate(
        SpreadPredictor(),
        calibrator if calibrator is not None else _calibrated(),
        policy=AbstentionPolicy(max_width=1.0),
        plausibility=plausibility,
    )


class TestSinglePath:
    def test_gate_replaces_the_analyzer_for_served_rows(self):
        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=_gate()
        ) as service:
            result = service.analyze(_spectrum(0.1))
        assert isinstance(result, Completed)
        expected = _spectrum(0.1).sum()
        np.testing.assert_allclose(result.value, [expected, expected])

    def test_wide_interval_abstains_with_the_interval_attached(self):
        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=_gate()
        ) as service:
            result = service.analyze(_spectrum(5.0))
        assert isinstance(result, Abstained)
        assert not result.ok
        assert result.reason == REASON_INTERVAL_TOO_WIDE
        assert result.width == pytest.approx(2 * (5.0 + 1e-3))
        lower, upper = result.interval
        assert (lower < result.value).all()
        assert (result.value < upper).all()
        assert np.isfinite(result.value).all()

    def test_uncalibrated_gate_abstains_everything(self):
        gate = _gate(calibrator=ConformalCalibrator())
        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=gate
        ) as service:
            result = service.analyze(_spectrum(0.1))
        assert isinstance(result, Abstained)
        assert result.reason == REASON_UNCALIBRATED
        assert np.isnan(result.lower).all()

    def test_exactly_once_accounting(self):
        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=_gate()
        ) as service:
            for _ in range(4):
                service.analyze(_spectrum(0.1))
            for _ in range(3):
                service.analyze(_spectrum(5.0))
            bad = _spectrum()
            bad[2] = np.nan
            service.analyze(bad)
            stats = service.stats()
        assert stats["submitted"] == 8
        assert stats["completed"] == 4
        assert stats["abstained"] == 3
        assert stats["abstentions"] == {REASON_INTERVAL_TOO_WIDE: 3}
        assert sum(stats["rejections"].values()) == 1
        assert (
            stats["completed"]
            + stats["abstained"]
            + sum(stats["rejections"].values())
            == stats["submitted"]
        )
        assert stats["abstention_rate"] == pytest.approx(3 / 7)

    def test_abstention_rate_excludes_queue_level_refusals(self):
        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=_gate()
        ) as service:
            assert service.stats()["abstention_rate"] is None
            service.analyze(_spectrum(5.0))
            bad = _spectrum()
            bad[0] = np.inf
            service.analyze(bad)  # rejected: says nothing about the model
            assert service.stats()["abstention_rate"] == 1.0

    def test_metrics_count_abstentions_by_reason(self):
        gate = _gate(plausibility=LastChannelCheck())
        with scoped() as (registry, _):
            with AnalysisService(
                _analyzer, expected_length=LENGTH, uncertainty=gate
            ) as service:
                service.analyze(_spectrum(0.1))
                service.analyze(_spectrum(5.0))
                service.analyze(_spectrum(5.0))
                service.analyze(_spectrum(0.1, fill=2.0))  # implausible
            expected = {REASON_INTERVAL_TOO_WIDE: 2, REASON_IMPLAUSIBLE_INPUT: 1}
            assert service.stats()["abstentions"] == expected
            for reason, count in expected.items():
                assert registry.counter("serving_abstentions_total").value(
                    service="analysis", reason=reason
                ) == count

    def test_abstention_never_trips_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2)
        with _service(
            _analyzer,
            expected_length=LENGTH,
            breaker=breaker,
            uncertainty=_gate(),
        ) as service:
            for _ in range(6):
                assert isinstance(service.analyze(_spectrum(5.0)), Abstained)
        assert breaker.state == CLOSED

    def test_raising_gate_is_contained_as_analyzer_error(self):
        class ExplodingGate:
            def assess(self, matrix):
                raise RuntimeError("gate exploded")

        with _service(
            _analyzer, expected_length=LENGTH, uncertainty=ExplodingGate()
        ) as service:
            result = service.analyze(_spectrum(0.1))
            follow_up = service.analyze(_spectrum(0.1))
        assert result.reason == "analyzer_error"
        assert follow_up.reason == "analyzer_error"


class TestBatchedPath:
    def test_one_ood_row_never_poisons_its_batchmates(self):
        service = _service(
            _analyzer,
            workers=1,
            queue_size=32,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=8, max_wait_s=0.05),
            uncertainty=_gate(),
        )
        with service:
            firsts = [0.1, 5.0, 0.1, 5.0, 0.1, 0.1]
            pending = [service.submit(_spectrum(f)) for f in firsts]
            results = [p.result(timeout=5.0) for p in pending]
        for first, result in zip(firsts, results):
            if first > 1.0:
                assert isinstance(result, Abstained)
                assert result.reason == REASON_INTERVAL_TOO_WIDE
            else:
                assert isinstance(result, Completed)
                expected = _spectrum(first).sum()
                np.testing.assert_allclose(
                    result.value, [expected, expected]
                )
        stats = service.stats()
        assert stats["completed"] == 4
        assert stats["abstained"] == 2
        assert stats["batching"]["batched_requests"] == 6

    def test_batched_accounting_is_exactly_once(self):
        service = _service(
            _analyzer,
            workers=2,
            queue_size=64,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=4, max_wait_s=0.01),
            uncertainty=_gate(),
        )
        with service:
            pending = [
                service.submit(_spectrum(5.0 if i % 3 == 0 else 0.1))
                for i in range(30)
            ]
            results = [p.result(timeout=5.0) for p in pending]
            stats = service.stats()
        assert all(r is not None for r in results)
        assert (
            stats["completed"]
            + stats["abstained"]
            + sum(stats["rejections"].values())
            == stats["submitted"]
            == 30
        )


class TestGatedAnalyzer:
    """Satellite: the gate answers every request; the analyzer never runs."""

    def test_gate_never_invokes_the_analyzer(self):
        calls = []

        def counting_analyzer(data):
            calls.append(data)
            return np.zeros(2)

        with _service(
            counting_analyzer, expected_length=LENGTH, uncertainty=_gate()
        ) as service:
            for _ in range(3):
                assert isinstance(service.analyze(_spectrum(5.0)), Abstained)
            assert service.analyze(_spectrum(0.1)).ok
        # Abstained and served rows alike were answered by the gate, so a
        # fallback analyzer behind it is never consulted.
        assert calls == []
