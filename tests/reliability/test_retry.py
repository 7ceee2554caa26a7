"""Unit tests for the retry policy and acquisition helper."""

import numpy as np
import pytest

from repro.reliability.faults import AcquisitionError, FaultConfig, FaultInjector
from repro.reliability.retry import (
    RetryExhaustedError,
    RetryPolicy,
    acquire_with_retry,
    finite_intensities,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_success_first_try_never_sleeps(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
        assert policy.call(lambda: 42) == 42
        assert sleeps == []
        assert policy.total_attempts == 1
        assert policy.total_retries == 0

    def test_retries_then_succeeds(self):
        sleeps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise AcquisitionError("scan lost")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.1, sleep=sleeps.append)
        assert policy.call(flaky) == "ok"
        assert len(sleeps) == 2
        assert policy.total_retries == 2

    def test_exhausted_raises_with_cause(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)

        def always_fails():
            raise AcquisitionError("dead instrument")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always_fails)
        assert isinstance(excinfo.value.__cause__, AcquisitionError)
        assert "2 attempts failed" in str(excinfo.value)

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        attempts = {"n": 0}

        def broken():
            attempts["n"] += 1
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert attempts["n"] == 1

    def test_exponential_backoff_shape(self):
        policy = RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=5.0, jitter=0.0)
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_per_seed(self):
        a = [RetryPolicy(jitter=0.2, seed=3).delay(i) for i in (1, 2, 3)]
        b = [RetryPolicy(jitter=0.2, seed=3).delay(i) for i in (1, 2, 3)]
        c = [RetryPolicy(jitter=0.2, seed=4).delay(i) for i in (1, 2, 3)]
        assert a == b
        assert a != c

    def test_jitter_stays_within_band(self):
        # Uncapped, the delay stays within raw * (1 ± jitter); at the cap,
        # jitter may pull it down but never push it past max_delay.
        cases = ((30.0, 0.1, 0.9, 1.1), (1.0, 0.5, 0.5, 1.0))
        for max_delay, jitter, low, high in cases:
            policy = RetryPolicy(
                base_delay=1.0, backoff=1.0, max_delay=max_delay,
                jitter=jitter, seed=0,
            )
            for attempt in range(1, 50):
                assert low <= policy.delay(attempt) <= high


class TestAcquireWithRetry:
    def test_recovers_dropped_scans(self):
        injector = FaultInjector(
            lambda: np.ones(50), FaultConfig(dropped_scan=0.5), seed=0
        )
        policy = RetryPolicy(max_attempts=20, base_delay=0.0, sleep=lambda s: None)
        for _ in range(10):
            out = acquire_with_retry(injector, policy=policy)
            assert out.shape == (50,)

    def test_validate_rejects_nan_scans(self):
        injector = FaultInjector(
            lambda: np.ones(50), FaultConfig(dead_channels=0.5), seed=0
        )
        policy = RetryPolicy(max_attempts=50, base_delay=0.0, sleep=lambda s: None)
        for _ in range(10):
            out = acquire_with_retry(
                injector, policy=policy, validate=finite_intensities
            )
            assert np.isfinite(out).all()

    def test_wraps_acquire_method_sources(self):
        class Source:
            calls = 0

            def acquire(self, scale):
                Source.calls += 1
                if Source.calls == 1:
                    raise AcquisitionError("first scan lost")
                return np.full(5, scale)

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, sleep=lambda s: None)
        out = acquire_with_retry(Source(), 2.0, policy=policy)
        assert np.array_equal(out, np.full(5, 2.0))


class TestFiniteIntensities:
    def test_accepts_finite(self):
        assert finite_intensities(np.ones(4))

    def test_rejects_nan_and_inf(self):
        assert not finite_intensities(np.array([1.0, np.nan]))
        assert not finite_intensities(np.array([1.0, np.inf]))

    def test_handles_measurement_tuple(self):
        from repro.ms.spectrum import MassSpectrum, MzAxis

        axis = MzAxis(1.0, 5.0, 1.0)
        good = (MassSpectrum(axis, np.ones(axis.size)), {"A": 1.0})
        bad = (MassSpectrum(axis, np.full(axis.size, np.nan)), {"A": 1.0})
        assert finite_intensities(good)
        assert not finite_intensities(bad)
