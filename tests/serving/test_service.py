"""Unit tests for the hardened AnalysisService."""

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    Abstained,
    AnalysisService,
    BatchingPolicy,
    BrownoutGovernor,
    CircuitBreaker,
    Completed,
    Rejected,
)
from repro.serving.circuit import CLOSED, OPEN
from repro.serving.service import row_outcome
from repro.uncertainty import (
    AbstentionPolicy,
    ConformalCalibrator,
    UncertaintyGate,
    UncertainPrediction,
)

LENGTH = 8

# Both drain modes: an unbatched service serves batches of one.
BOTH_MODES = pytest.mark.parametrize(
    "batching",
    [None, BatchingPolicy(max_batch=4)],
    ids=["unbatched", "batched"],
)


def _spectrum(value=1.0):
    return np.full(LENGTH, value)


def _double(data):
    return data * 2.0


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            result = service.analyze(_spectrum())
            assert isinstance(result, Completed)
        with pytest.raises(RuntimeError):
            service.submit(_spectrum())

    def test_double_start_rejected(self):
        service = AnalysisService(_double)
        service.start()
        try:
            with pytest.raises(RuntimeError):
                service.start()
        finally:
            service.stop()

    def test_stop_is_idempotent(self):
        service = AnalysisService(_double).start()
        service.stop()
        service.stop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AnalysisService(_double, workers=0)
        with pytest.raises(ValueError):
            AnalysisService(_double, queue_size=0)
        with pytest.raises(ValueError):
            AnalysisService(_double, default_deadline_s=0)


class TestHappyPath:
    def test_completed_carries_value_and_timing(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            result = service.analyze(_spectrum(3.0))
        assert result.ok
        np.testing.assert_allclose(result.value, np.full(LENGTH, 6.0))
        assert result.latency_s >= 0.0
        assert np.isfinite(result.value).all()

    @BOTH_MODES
    def test_tuple_protocol_analyzer(self, batching):
        def timed(data):
            return data + 1.0, 0.25

        with AnalysisService(
            timed, expected_length=LENGTH, batching=batching
        ) as service:
            result = service.analyze(_spectrum())
        assert result.ok
        assert result.analyzer_seconds == 0.25

    def test_stats_add_up(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            for _ in range(5):
                service.analyze(_spectrum())
            bad = _spectrum()
            bad[0] = np.nan
            service.analyze(bad)
            stats = service.stats()
        assert stats["submitted"] == 6
        assert stats["completed"] == 5
        assert sum(stats["rejections"].values()) == 1


class TestInputGate:
    def test_nan_input_rejected(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            bad = _spectrum()
            bad[3] = np.nan
            result = service.analyze(bad)
        assert isinstance(result, Rejected)
        assert result.reason == "invalid_input"

    def test_wrong_length_rejected(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            result = service.analyze(np.ones(LENGTH + 1))
        assert result.reason == "invalid_input"

    def test_invalid_input_does_not_trip_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2)
        with AnalysisService(
            _double, expected_length=LENGTH, breaker=breaker
        ) as service:
            bad = _spectrum()
            bad[0] = np.inf
            for _ in range(6):
                assert service.analyze(bad).reason == "invalid_input"
        assert breaker.state == CLOSED

    def test_custom_validator(self):
        def only_positive(data):
            from repro.reliability.validation import RangeError

            data = np.asarray(data, dtype=np.float64)
            if (data <= 0).any():
                raise RangeError("non-positive channel", field="spectrum")
            return data

        with AnalysisService(_double, validator=only_positive) as service:
            assert service.analyze(_spectrum(1.0)).ok
            assert service.analyze(_spectrum(-1.0)).reason == "invalid_input"


class TestOutputGate:
    def test_nonfinite_output_never_reaches_caller(self):
        def broken(data):
            return np.full(2, np.nan)

        with AnalysisService(broken, expected_length=LENGTH) as service:
            result = service.analyze(_spectrum())
        assert isinstance(result, Rejected)
        assert result.reason == "nonfinite_output"

    def test_analyzer_exception_is_contained(self):
        def crashing(data):
            raise RuntimeError("solver exploded")

        with AnalysisService(crashing, expected_length=LENGTH) as service:
            result = service.analyze(_spectrum())
            # The worker survived and can serve the next request.
            follow_up = service.submit(_spectrum())
        assert result.reason == "analyzer_error"
        assert "solver exploded" in result.detail["error"]
        assert follow_up.result(timeout=5.0).reason == "analyzer_error"


class TestLoadShedding:
    def test_queue_full_sheds_immediately(self):
        release = threading.Event()

        def blocked(data):
            release.wait(5.0)
            return data

        service = AnalysisService(
            blocked, workers=1, queue_size=1, default_deadline_s=10.0
        )
        with service:
            # First request occupies the worker; second fills the queue;
            # the rest must shed.
            pending = [service.submit(_spectrum()) for _ in range(6)]
            shed = [
                p.result(timeout=0.5)
                for p in pending
                if p.resolved
            ]
            assert any(r.reason == "queue_full" for r in shed)
            release.set()
            results = [p.result(timeout=5.0) for p in pending]
        reasons = [r.reason for r in results if not r.ok]
        assert all(r == "queue_full" for r in reasons)
        # Worker capacity (1 in flight) + queue capacity (1) bound the
        # number of admitted requests; exact split depends on timing.
        completed = sum(1 for r in results if r.ok)
        assert 1 <= completed <= 2
        assert completed + len(reasons) == 6

    def test_slow_analyzer_misses_deadline(self):
        def slow(data):
            time.sleep(0.2)
            return data

        with AnalysisService(
            slow, workers=1, default_deadline_s=0.05
        ) as service:
            result = service.analyze(_spectrum())
        assert not result.ok
        assert result.reason in ("deadline_exceeded", "deadline_expired_in_queue")

    def test_deadline_expired_in_queue(self):
        release = threading.Event()

        def blocked(data):
            release.wait(5.0)
            return data

        service = AnalysisService(
            blocked, workers=1, queue_size=4, default_deadline_s=0.1
        )
        with service:
            first = service.submit(_spectrum(), deadline_s=10.0)
            queued = service.submit(_spectrum(), deadline_s=0.05)
            time.sleep(0.15)  # let the queued deadline lapse
            release.set()
            first_result = first.result(timeout=5.0)
            queued_result = queued.result(timeout=5.0)
        assert first_result.ok
        assert queued_result.reason in (
            "deadline_expired_in_queue", "deadline_exceeded"
        )

    def test_submit_validates_deadline(self):
        with AnalysisService(_double) as service:
            with pytest.raises(ValueError):
                service.submit(_spectrum(), deadline_s=0)


class TestStopResolvesEverything:
    """stop() must never strand a caller blocked in result(): whatever
    the drain cannot finish resolves as Rejected("shutdown")."""

    def test_stop_refuses_queued_and_inflight_requests(self):
        release = threading.Event()

        def hung(data):
            release.wait(10.0)
            return data

        service = AnalysisService(
            hung, workers=1, queue_size=8, default_deadline_s=30.0
        )
        service.start()
        pending = [service.submit(_spectrum()) for _ in range(5)]
        time.sleep(0.05)  # one request in flight, four queued
        start = time.monotonic()
        service.stop(timeout=0.3)
        assert time.monotonic() - start < 5.0
        for request in pending:
            result = request.result(timeout=1.0)
            assert result is not None
            assert result.reason == "shutdown"
        release.set()

    def test_caller_blocked_in_result_is_released_by_stop(self):
        release = threading.Event()

        def hung(data):
            release.wait(10.0)
            return data

        service = AnalysisService(
            hung, workers=1, queue_size=4, default_deadline_s=30.0
        )
        service.start()
        request = service.submit(_spectrum())
        outcomes = []

        def caller():
            outcomes.append(request.result(timeout=20.0))

        thread = threading.Thread(target=caller)
        thread.start()
        time.sleep(0.05)
        service.stop(timeout=0.2)
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "caller stayed blocked through stop()"
        assert outcomes and outcomes[0].reason == "shutdown"
        release.set()

    def test_late_worker_result_is_dropped_after_stop(self):
        release = threading.Event()
        produced = []

        def slow(data):
            release.wait(5.0)
            produced.append(True)
            return data * 2.0

        service = AnalysisService(
            slow, workers=1, queue_size=4, default_deadline_s=30.0
        )
        service.start()
        request = service.submit(_spectrum())
        time.sleep(0.05)
        service.stop(timeout=0.1)
        assert request.result(timeout=1.0).reason == "shutdown"
        # The hung worker finishes later; its answer must be dropped, not
        # overwrite the shutdown resolution.
        release.set()
        time.sleep(0.2)
        assert request.result(timeout=0.1).reason == "shutdown"

    def test_graceful_stop_still_completes_drained_work(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            results = [service.analyze(_spectrum()) for _ in range(4)]
        assert all(r.ok for r in results)


class TestCircuitIntegration:
    def test_breaker_opens_and_recovers(self):
        mode = {"fail": True}

        def flaky(data):
            if mode["fail"]:
                raise RuntimeError("backend down")
            return data

        breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=0.1)
        with AnalysisService(
            flaky, workers=1, expected_length=LENGTH, breaker=breaker
        ) as service:
            for _ in range(3):
                assert service.analyze(_spectrum()).reason == "analyzer_error"
            assert breaker.state == OPEN
            # While open, requests are refused without touching the backend.
            assert service.analyze(_spectrum()).reason == "circuit_open"
            # Backend heals; after the cooldown a probe closes the circuit.
            mode["fail"] = False
            time.sleep(0.15)
            result = service.analyze(_spectrum())
            assert result.ok
            assert breaker.state == CLOSED
            assert service.analyze(_spectrum()).ok


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _RecordingBreaker(CircuitBreaker):
    """A breaker that never opens and logs every outcome it is told."""

    def __init__(self):
        super().__init__(failure_threshold=100)
        self.records = []

    def record_success(self):
        self.records.append("success")
        super().record_success()

    def record_failure(self):
        self.records.append("failure")
        super().record_failure()


class _DoublingPredictor:
    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        return UncertainPrediction(mean=x * 2.0, std=np.ones_like(x))


def _uncalibrated_gate():
    """A gate with no calibration data: it abstains on every row."""
    return UncertaintyGate(
        _DoublingPredictor(),
        ConformalCalibrator(),
        policy=AbstentionPolicy(max_width=1.0),
    )


class _WorkerFaultGovernor(BrownoutGovernor):
    """Samples normally at admission, raises on the worker side."""

    def maybe_observe(self, *args, **kwargs):
        if threading.current_thread().name.startswith("analysis-worker"):
            raise RuntimeError("governor fault")
        return super().maybe_observe(*args, **kwargs)


class TestOnePipeline:
    """One drain for every service: contracts hold alike in both modes."""

    @pytest.mark.parametrize("finite, late, abstain, expected", [
        (False, False, False, "nonfinite_output"),
        (False, True, False, "nonfinite_output"),
        (False, True, True, "nonfinite_output"),
        (True, True, False, "deadline_exceeded"),
        (True, True, True, "deadline_exceeded"),
        (True, False, True, "abstained"),
        (True, False, False, "completed"),
    ])
    def test_row_outcome_precedence(self, finite, late, abstain, expected):
        assert row_outcome(finite, late, abstain) == expected

    @BOTH_MODES
    @pytest.mark.parametrize("case, outcome, record", [
        ("invalid", "invalid_input", "success"),
        ("analyzer_error", "analyzer_error", "failure"),
        ("nonfinite", "nonfinite_output", "failure"),
        ("late", "deadline_exceeded", "failure"),
        ("abstained", "abstained", "success"),
        ("ok", "completed", "success"),
    ])
    def test_breaker_records_one_outcome_per_dispatch(
        self, batching, case, outcome, record
    ):
        """A dispatch is healthy iff a row came back finite and in time;
        a dispatch of only invalid rows never reached the backend."""
        clock = _FakeClock()

        def analyzer(data):
            if case == "analyzer_error":
                raise RuntimeError("backend down")
            if case == "nonfinite":
                return np.full(LENGTH, np.nan)
            if case == "late":
                clock.now += 10.0  # correct, but past the 1 s deadline
            return data * 2.0

        breaker = _RecordingBreaker()
        service = AnalysisService(
            analyzer,
            expected_length=LENGTH,
            breaker=breaker,
            clock=clock,
            batching=batching,
            uncertainty=_uncalibrated_gate() if case == "abstained" else None,
        )
        payload = np.full(LENGTH, np.nan) if case == "invalid" else _spectrum()
        with service:
            result = service.submit(payload).result(timeout=5.0)
        if result.ok:
            label = "completed"
        elif isinstance(result, Abstained):
            label = "abstained"
        else:
            label = result.reason
        assert label == outcome
        assert breaker.records == [record]

    def test_lone_failing_request_calls_the_backend_once(self):
        calls = []

        def failing(matrix):
            calls.append(len(matrix))
            raise RuntimeError("backend down")

        with AnalysisService(
            _double,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=4, max_wait_s=0.001),
            batch_analyzer=failing,
        ) as service:
            result = service.analyze(_spectrum())
        assert result.reason == "analyzer_error"
        assert calls == [1]

    @BOTH_MODES
    def test_worker_side_fault_refuses_promptly(self, batching):
        """A defence failing on the worker must refuse what the worker
        dequeued at once, not strand it until the caller times out."""
        with AnalysisService(
            _double,
            expected_length=LENGTH,
            batching=batching,
            governor=_WorkerFaultGovernor(sample_interval_s=0.0),
        ) as service:
            for _ in range(2):  # the worker survives the first fault
                started = time.monotonic()
                result = service.submit(_spectrum(), deadline_s=1.0).result(
                    timeout=3.0
                )
                assert time.monotonic() - started < 0.5
                assert result.reason == "internal_error"
                assert "governor fault" in result.detail["error"]


class TestAdaptationHooks:
    def test_swap_analyzer_changes_served_values(self):
        with AnalysisService(_double, expected_length=LENGTH) as service:
            before = service.analyze(_spectrum(2.0))
            np.testing.assert_allclose(before.value, np.full(LENGTH, 4.0))
            service.swap_analyzer(lambda data: data * 3.0)
            after = service.analyze(_spectrum(2.0))
            np.testing.assert_allclose(after.value, np.full(LENGTH, 6.0))
            stats = service.stats()
            assert stats["model_swaps"] == 1

    def test_shadow_tap_sees_every_completion(self):
        seen = []
        lock = threading.Lock()

        def tap(data, value):
            with lock:
                seen.append((np.asarray(data).copy(), np.asarray(value).copy()))

        with AnalysisService(_double, expected_length=LENGTH) as service:
            service.set_shadow_tap(tap)
            for value in (1.0, 2.0, 3.0):
                result = service.analyze(_spectrum(value))
                assert result.ok
            service.set_shadow_tap(None)
            service.analyze(_spectrum(9.0))
        assert len(seen) == 3
        for data, value in seen:
            np.testing.assert_allclose(value, data * 2.0)

    def test_tap_never_fires_for_rejections(self):
        seen = []
        with AnalysisService(_double, expected_length=LENGTH) as service:
            service.set_shadow_tap(lambda data, value: seen.append(data))
            bad = service.analyze(np.full(LENGTH + 3, 1.0))
            assert isinstance(bad, Rejected)
            good = service.analyze(_spectrum())
            assert good.ok
        assert len(seen) == 1

    def test_raising_tap_cannot_break_serving(self):
        from repro.observability import scoped

        def poisoned_tap(data, value):
            raise RuntimeError("tap exploded")

        with scoped() as (registry, _):
            with AnalysisService(_double, expected_length=LENGTH) as service:
                service.set_shadow_tap(poisoned_tap)
                results = [service.analyze(_spectrum(v)) for v in (1.0, 2.0)]
            assert all(r.ok for r in results)
            assert registry.counter("serving_shadow_tap_errors_total").value(
                service="analysis"
            ) == 2
