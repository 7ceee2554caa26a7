"""Unit tests for micro-batching and brownout degradation.

Covers the three contracts the batched fast path must keep:

* coalescing never changes answers (byte-identical outputs however a
  request was batched);
* every defence is applied per row — deadlines re-checked at batch
  drain, validation failures reject only their own request, a failed
  batch call falls back to single-row retries;
* the brownout governor walks declared degradation levels with
  hysteresis and the service honors each level's posture at admission.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.core import table1_topology
from repro.observability import MetricsRegistry
from repro.serving import (
    AnalysisService,
    BatchingPolicy,
    BrownoutGovernor,
    BrownoutLevel,
    CircuitBreaker,
    batch_analyzer_from_model,
)
from repro.serving.circuit import CLOSED, OPEN

LENGTH = 16
OUTPUTS = 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _model():
    model = nn.Sequential(
        [nn.Dense(8, activation="relu"),
         nn.Dense(OUTPUTS, activation="softmax")]
    )
    model.build((LENGTH,), seed=0)
    model.compile(nn.Adam(0.01), "mae")
    return model


def _double_batch(matrix):
    return np.asarray(matrix, dtype=np.float64) * 2.0


def _double(data):
    return data * 2.0


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_s=-1.0)

    def test_wait_shrinks_under_load(self):
        policy = BatchingPolicy(max_batch=8, max_wait_s=0.01)
        idle = policy.wait_for(0, 16)
        half = policy.wait_for(8, 16)
        full = policy.wait_for(16, 16)
        assert idle == pytest.approx(0.01)
        assert half == pytest.approx(0.005)
        assert full == pytest.approx(0.0)
        assert idle > half > full

    def test_cap_growth(self):
        policy = BatchingPolicy(max_batch=8)
        assert policy.cap_for() == 8
        assert policy.cap_for(2.0) == 16
        assert policy.cap_for(1.5) == 12


class TestBrownoutGovernor:
    def _governor(self, clock, hold_s=1.0):
        levels = [
            BrownoutLevel(name="grow", enter_fill=0.5, batch_growth=2.0),
            BrownoutLevel(name="tighten", enter_fill=0.75,
                          deadline_factor=0.5),
            BrownoutLevel(name="deepest", enter_fill=0.9, batch_growth=4.0),
        ]
        return BrownoutGovernor(
            levels=levels, hysteresis=0.8, hold_s=hold_s, clock=clock,
        )

    def test_escalation_is_immediate_and_skips_levels(self, ):
        clock = FakeClock()
        governor = self._governor(clock)
        assert governor.observe(0.1) == 0
        assert governor.observe(0.6) == 1
        assert governor.observe(0.95) == 3  # straight to the deepest level
        assert len(governor.transitions) == 2

    def test_descend_requires_hold_below_exit_threshold(self):
        clock = FakeClock()
        governor = self._governor(clock, hold_s=1.0)
        governor.observe(0.6)
        assert governor.level == 1
        # Below enter (0.5) but above exit (0.8 * 0.5 = 0.4): stays put.
        clock.advance(10.0)
        assert governor.observe(0.45) == 1
        clock.advance(10.0)
        assert governor.observe(0.45) == 1
        # Calm, but not for long enough yet.
        assert governor.observe(0.1) == 1
        clock.advance(0.5)
        assert governor.observe(0.1) == 1
        # Held calm past hold_s: one step down.
        clock.advance(0.6)
        assert governor.observe(0.1) == 0

    def test_descends_one_level_at_a_time(self):
        clock = FakeClock()
        governor = self._governor(clock, hold_s=1.0)
        governor.observe(0.95)
        assert governor.level == 3
        governor.observe(0.0)
        clock.advance(1.1)
        assert governor.observe(0.0) == 2  # not straight to 0
        governor.observe(0.0)
        clock.advance(1.1)
        assert governor.observe(0.0) == 1

    def test_snapshot_reports_the_active_posture(self):
        clock = FakeClock()
        governor = self._governor(clock)
        governor.observe(0.8)
        snap = governor.snapshot()
        assert snap["level"] == 2
        assert snap["name"] == "tighten"
        assert snap["deadline_factor"] == 0.5
        assert snap["transitions"] == 1


class TestByteIdentity:
    def test_batched_outputs_match_reference_bitwise(self):
        """A request's answer is byte-identical however it was coalesced."""
        model = _model()
        batch_analyzer = batch_analyzer_from_model(model)
        rng = np.random.default_rng(7)
        spectra = rng.random((48, LENGTH))
        reference = batch_analyzer(spectra)

        service = AnalysisService(
            lambda data: model.predict(data[None, :], validate=False)[0],
            workers=2,
            queue_size=64,
            default_deadline_s=30.0,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=16, max_wait_s=0.002),
            batch_analyzer=batch_analyzer,
            name="byteid",
            registry=MetricsRegistry(),
        )
        with service:
            pending = [service.submit(row) for row in spectra]
            results = [p.result(timeout=30.0) for p in pending]
        assert all(r.ok for r in results)
        for index, result in enumerate(results):
            assert result.value.tobytes() == reference[index].tobytes()
        # Some coalescing actually happened (not 48 batches of one).
        stats = service.stats()
        assert stats["batching"]["batches"] < 48

    def test_lone_request_matches_large_batch_bitwise(self):
        """The gemv/gemm padding: a batch of one equals the same row in a
        large batch, bit for bit."""
        model = _model()
        batch_analyzer = batch_analyzer_from_model(model)
        rng = np.random.default_rng(11)
        spectra = rng.random((32, LENGTH))
        reference = batch_analyzer(spectra)
        lone = batch_analyzer(spectra[:1])
        assert lone[0].tobytes() == reference[0].tobytes()


def _lstm_model():
    model = nn.Sequential([nn.Reshape((-1, 1)), nn.LSTM(8), nn.Dense(4)])
    return model.build((60,), seed=0)


class TestBatchAnalyzerOutputPins:
    """sha256 of ``batch_analyzer_from_model`` outputs at batch sizes 1, 3
    and 32, captured while the reference and frozen paths were two
    separate closures (numpy 2.4, OpenBLAS, x86-64).  A batch of one is
    padded, so its digest differs from the engine's unpadded one."""

    PINNED = {
        ("table1", None): {
            1: "9160c56b8d6422e9d24da51fa249d42bba652bd173d07ff375895b559c63cb2d",
            3: "e0dc657b335c1cfd767a06e8a8f4d583e62c3e86902342d5a7965756bb023364",
            32: "eed2f44b4ae780b6f4a1b67d890087092323e9a1affcb55c7093d490e6039ee9",
        },
        ("table1", "float32"): {
            1: "23fa62174901b500977f1259cb697b93448da91442335c7da180bf9f94979b1f",
            3: "ad8cf5b3f5db9f937b814aeb0f2dbbac768611e86da1554a54e0abb1d8be6182",
            32: "b147fcdeed56396c7090ed5f54d7c90ff983e21ff534bbb476b8a5b0d76cd860",
        },
        ("table1", "int8"): {
            1: "90792bfc876fdea63019432cec1aad7acace7018af0d1bd94d7b6bd9691c9ccd",
            3: "95650fdf0f056b34005ada687e4c2b30a9ee6bac6d426f81e374ee4265c6bf13",
            32: "b998e5ac04508e076f702a988bc84ef5bb2598a43681f736c35b37d77163387a",
        },
        # The LSTM cannot freeze: the reference fallback serves it.
        ("lstm", "float32"): {
            1: "10ac0c09c3d4c54cf12706618e246237c380920225e5355d0bfcdbd4cb18116d",
            3: "162c7e7607879822403ebb8ae1ec01e8d48074b7012c4f3844922cf225589c0b",
            32: "5c35485b8717cbbbf76d505f08a9b10f5bc77b7f379cb67ceeac7b125408dc91",
        },
    }
    MODELS = {
        "table1": (lambda: table1_topology(4).build((246,), seed=0), 246),
        "lstm": (_lstm_model, 60),
    }
    DTYPES = {
        ("table1", None): None,
        ("table1", "float32"): "float32",
        ("table1", "int8"): "int8",
        ("lstm", "float32"): None,
    }

    def _check(self, key, sizes):
        name, frozen = key
        build, length = self.MODELS[name]
        analyzer = batch_analyzer_from_model(build(), frozen=frozen)
        assert analyzer.frozen_dtype == self.DTYPES[key]
        assert (analyzer.engine is None) == (analyzer.frozen_dtype is None)
        x = np.random.default_rng(5).random((32, length))
        for n in sizes:
            out = analyzer(x[:n])
            digest = hashlib.sha256(out.tobytes()).hexdigest()
            assert digest == self.PINNED[key][n], n

    @pytest.mark.parametrize("key", sorted(PINNED, key=str))
    def test_batches_1_3_32(self, key):
        self._check(key, (1, 3, 32))

    @pytest.mark.parametrize("key", sorted(PINNED, key=str))
    def test_batches_32_3_1(self, key):
        """Largest first: frozen batches 3 and 1 run in the engine's
        capacity-32 workspace."""
        self._check(key, (32, 3, 1))


class TestPerRowGating:
    def _batched_service(self, batch_analyzer, **kwargs):
        defaults = dict(
            workers=1,
            queue_size=16,
            default_deadline_s=10.0,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=8, max_wait_s=0.01),
            batch_analyzer=batch_analyzer,
            registry=MetricsRegistry(),
        )
        defaults.update(kwargs)
        return AnalysisService(_double, **defaults)

    def _run_coalesced(self, service, payloads):
        """Occupy the worker, queue all payloads, release: one batch."""
        release = threading.Event()
        inner = service.batch_analyzer

        def gated(matrix):
            release.wait(5.0)
            return inner(matrix)

        service.batch_analyzer = gated
        with service:
            first = service.submit(np.ones(LENGTH))
            time.sleep(0.05)  # the worker picks it up and blocks
            pending = [service.submit(p) for p in payloads]
            release.set()
            head = first.result(timeout=5.0)
            results = [p.result(timeout=5.0) for p in pending]
        return head, results

    def test_invalid_row_does_not_poison_batchmates(self):
        service = self._batched_service(_double_batch)
        bad = np.ones(LENGTH)
        bad[3] = np.nan
        head, results = self._run_coalesced(
            service, [np.ones(LENGTH), bad, np.ones(LENGTH)]
        )
        assert head.ok
        assert results[0].ok and results[2].ok
        np.testing.assert_allclose(results[0].value, np.full(LENGTH, 2.0))
        assert results[1].reason == "invalid_input"

    def test_nonfinite_row_rejected_alone(self):
        def partial_nan(matrix):
            out = _double_batch(matrix)
            # Poison exactly the rows whose first channel is 3.0.
            out[np.asarray(matrix)[:, 0] == 3.0] = np.nan
            return out

        service = self._batched_service(partial_nan)
        head, results = self._run_coalesced(
            service, [np.ones(LENGTH), np.full(LENGTH, 3.0), np.ones(LENGTH)]
        )
        assert results[0].ok and results[2].ok
        assert results[1].reason == "nonfinite_output"

    def test_batch_failure_falls_back_to_single_rows(self):
        calls = {"batch": 0, "single": 0}

        def poisoned(matrix):
            matrix = np.asarray(matrix)
            if matrix.shape[0] > 1:
                calls["batch"] += 1
                raise RuntimeError("batch kernel refused")
            calls["single"] += 1
            if matrix[0, 0] == 3.0:
                raise RuntimeError("poisoned row")
            return _double_batch(matrix)

        service = self._batched_service(poisoned)
        head, results = self._run_coalesced(
            service, [np.ones(LENGTH), np.full(LENGTH, 3.0), np.ones(LENGTH)]
        )
        assert results[0].ok and results[2].ok
        assert results[1].reason == "analyzer_error"
        assert "poisoned row" in results[1].detail["error"]
        assert "batch kernel refused" in results[1].detail["batch_error"]
        assert calls["batch"] >= 1 and calls["single"] >= 3

    def test_deadline_expired_in_queue_checked_at_drain(self):
        release = threading.Event()

        def blocking_batch(matrix):
            release.wait(5.0)
            return _double_batch(matrix)

        service = self._batched_service(blocking_batch)
        with service:
            first = service.submit(np.ones(LENGTH), deadline_s=10.0)
            time.sleep(0.05)
            doomed = service.submit(np.ones(LENGTH), deadline_s=0.05)
            healthy = service.submit(np.ones(LENGTH), deadline_s=10.0)
            time.sleep(0.15)  # doomed's deadline lapses while queued
            release.set()
            assert first.result(timeout=5.0).ok
            doomed_result = doomed.result(timeout=5.0)
            healthy_result = healthy.result(timeout=5.0)
        assert doomed_result.reason in (
            "deadline_expired_in_queue", "deadline_exceeded"
        )
        assert healthy_result.ok

    def test_slow_batch_never_returns_a_late_answer(self):
        def slow_batch(matrix):
            time.sleep(0.2)
            return _double_batch(matrix)

        service = self._batched_service(slow_batch)
        with service:
            result = service.analyze(np.ones(LENGTH), deadline_s=0.05)
        assert not result.ok
        assert result.reason in (
            "deadline_exceeded", "deadline_expired_in_queue"
        )

    def test_circuit_open_refuses_batches(self):
        def crashing(matrix):
            raise RuntimeError("backend down")

        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=60.0)
        service = self._batched_service(crashing, breaker=breaker)
        with service:
            reasons = [
                service.analyze(np.ones(LENGTH)).reason for _ in range(6)
            ]
        assert breaker.state == OPEN
        assert "analyzer_error" in reasons
        assert "circuit_open" in reasons

    def test_stats_report_batching(self):
        service = self._batched_service(_double_batch)
        with service:
            for _ in range(6):
                assert service.analyze(np.ones(LENGTH)).ok
            stats = service.stats()
        assert stats["batching"]["batches"] >= 1
        assert stats["batching"]["batched_requests"] == 6
        assert stats["batching"]["mean_batch_size"] >= 1.0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_batch_counts_do_not_depend_on_telemetry(self, enabled):
        service = self._batched_service(
            _double_batch, registry=MetricsRegistry(enabled=enabled)
        )
        with service:
            for _ in range(10):
                assert service.analyze(np.ones(LENGTH)).ok
            batching = service.stats()["batching"]
        assert (batching["batches"], batching["batched_requests"]) == (10, 10)
        assert (batching["p50"] is None) == (not enabled)

    def test_batched_mode_without_batch_analyzer_maps_single(self):
        service = AnalysisService(
            _double,
            workers=1,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=4, max_wait_s=0.001),
        )
        with service:
            result = service.analyze(np.full(LENGTH, 2.0))
        assert result.ok
        np.testing.assert_allclose(result.value, np.full(LENGTH, 4.0))


class TestBrownoutIntegration:
    def _governed_service(self, governor, **kwargs):
        defaults = dict(
            workers=1,
            queue_size=16,
            default_deadline_s=1.0,
            expected_length=LENGTH,
            governor=governor,
            registry=MetricsRegistry(),
        )
        defaults.update(kwargs)
        return AnalysisService(_double, **defaults)

    def test_deadline_tightened_under_brownout(self):
        governor = BrownoutGovernor(
            levels=[BrownoutLevel(name="tighten", enter_fill=0.5,
                                  deadline_factor=0.5)],
            hold_s=999.0,
        )
        governor.observe(0.9)  # force level 1; hold_s pins it there
        service = self._governed_service(governor)
        with service:
            request = service.submit(np.ones(LENGTH), deadline_s=10.0)
            slack = request.deadline_at - service.clock()
            assert request.result(timeout=5.0).ok
        assert 0.0 < slack <= 5.0 + 0.1

    def test_transitions_surface_in_stats_and_spans(self):
        """Queue fill alone drives the governor, so the same fill
        sequence gives the same transitions with telemetry on or off."""
        from repro.observability import MetricsRegistry, Tracer

        for enabled in (True, False):
            entered, release = threading.Event(), threading.Event()

            def blocking(data):
                entered.set()
                release.wait(10.0)
                return _double(data)

            tracer = Tracer()
            governor = BrownoutGovernor(
                levels=[BrownoutLevel(name="grow", enter_fill=0.5,
                                      batch_growth=2.0)],
                hold_s=999.0,
            )
            service = AnalysisService(
                blocking,
                workers=1,
                queue_size=4,
                default_deadline_s=10.0,
                expected_length=LENGTH,
                governor=governor,
                registry=MetricsRegistry(enabled=enabled),
                tracer=tracer,
                name="brownout-spans",
            )
            with service:
                pending = [service.submit(np.ones(LENGTH))]
                assert entered.wait(5.0)
                # The worker is held: admissions see fills 0/4, 1/4 and
                # 2/4, and only the last reaches the level's enter_fill.
                pending += [service.submit(np.ones(LENGTH)) for _ in range(3)]
                release.set()
                assert all(p.result(timeout=5.0).ok for p in pending)
                stats = service.stats()
            assert [
                (t.from_level, t.to_level, t.queue_fill)
                for t in governor.transitions
            ] == [(0, 1, 0.5)], f"registry enabled={enabled}"
            assert stats["brownout"]["level"] == 1
            assert stats["brownout"]["name"] == "grow"
            assert stats["brownout"]["transitions"] == 1
            brownout_spans = [
                s for s in tracer.finished_spans()
                if s.name == "serving.brownout"
            ]
            assert len(brownout_spans) == 1
            assert brownout_spans[0].attributes["to_level"] == 1
            events = brownout_spans[0].events
            assert events and events[0]["name"] == "brownout_transition"
            assert events[0]["attributes"]["to"] == "grow"


class TestBatchedShutdown:
    def test_stop_with_batched_workers_resolves_everything(self):
        release = threading.Event()

        def blocking_batch(matrix):
            release.wait(10.0)
            return _double_batch(matrix)

        service = AnalysisService(
            _double,
            workers=1,
            queue_size=8,
            default_deadline_s=30.0,
            expected_length=LENGTH,
            batching=BatchingPolicy(max_batch=4, max_wait_s=0.001),
            batch_analyzer=blocking_batch,
        )
        service.start()
        pending = [service.submit(np.ones(LENGTH)) for _ in range(6)]
        time.sleep(0.05)  # a batch is in flight, the rest are queued
        service.stop(timeout=0.3)
        for request in pending:
            result = request.result(timeout=1.0)
            assert result is not None
            assert not result.ok
            assert result.reason == "shutdown"
        release.set()

