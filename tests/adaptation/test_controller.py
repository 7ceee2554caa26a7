"""Unit tests for the guarded recalibration controller."""

import time

import numpy as np
import pytest

from repro.adaptation.controller import (
    AdaptationController,
    PromotionGate,
    ShadowStats,
)
from repro.core.topologies import mlp_topology
from repro.nn.optimizers import Adam
from repro.nn.serialization import clone_model
from repro.reliability.checkpoint import CheckpointManager
from repro.serving.batching import batch_analyzer_from_model
from repro.serving.service import AnalysisService
from repro.storage.promotion import PromotionJournal

N_FEATURES = 10
N_OUTPUTS = 2


class FakeStatus:
    def __init__(self, drifted):
        self.drifted = drifted

    def to_record(self):
        return {"drifted": self.drifted, "severity": None,
                "severity_finite": False}


class NaNModel:
    """A poisoned candidate: always predicts NaN."""

    def predict(self, batch):
        out = np.empty((np.asarray(batch).shape[0], N_OUTPUTS))
        out[:] = np.nan
        return out


def _trained_model(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((150, N_FEATURES))
    y = x[:, :N_OUTPUTS] / 2.0
    model = mlp_topology(N_OUTPUTS, hidden_units=(8,)).build(
        (N_FEATURES,), seed=seed
    )
    model.compile(Adam(0.01), "mae")
    model.fit(x, y, epochs=4, batch_size=32, seed=seed, verbose=False)
    return model, x, y


@pytest.fixture
def rig(tmp_path):
    model, x, y = _trained_model()

    def analyzer(row):
        return model.predict(np.asarray(row, dtype=np.float64)[None, :])[0]

    service = AnalysisService(
        analyzer, workers=2, queue_size=32, expected_length=N_FEATURES
    ).start()
    controller = AdaptationController(
        service,
        model,
        CheckpointManager(tmp_path / "ckpt"),
        PromotionJournal(tmp_path / "promotion.jsonl"),
        x[:40],
        y[:40],
        gate=PromotionGate(
            min_shadow_requests=5, max_reference_mae_ratio=2.0
        ),
        cooldown_observations=3,
        watch_observations=10,
    )
    yield service, controller, model, x
    service.stop()


def _wait_state(controller, want, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if controller.state == want:
            return True
        time.sleep(0.01)
    return False


class TestPromotionGate:
    def test_validation(self):
        with pytest.raises(ValueError):
            PromotionGate(min_shadow_requests=0)
        with pytest.raises(ValueError):
            PromotionGate(min_finite_fraction=0.0)
        with pytest.raises(ValueError):
            PromotionGate(max_reference_mae_ratio=0.0)

    def test_passes_a_clean_window(self):
        stats = ShadowStats(requests=10, finite=10, delta_sum=0.1,
                            delta_count=10)
        decision = PromotionGate(min_shadow_requests=10).decide(
            stats, candidate_mae=0.05, primary_mae=0.05
        )
        assert decision.promote
        assert decision.reasons == ()

    def test_rejects_nonfinite_shadow_outputs(self):
        stats = ShadowStats(requests=10, finite=9)
        decision = PromotionGate(min_shadow_requests=10).decide(
            stats, candidate_mae=0.01, primary_mae=0.05
        )
        assert not decision.promote
        assert "nonfinite_shadow_outputs" in decision.reasons

    def test_rejects_reference_regression_and_nan_mae(self):
        stats = ShadowStats(requests=10, finite=10)
        gate = PromotionGate(min_shadow_requests=10,
                             max_reference_mae_ratio=1.2)
        worse = gate.decide(stats, candidate_mae=0.2, primary_mae=0.1)
        assert "reference_mae_regression" in worse.reasons
        poisoned = gate.decide(
            stats, candidate_mae=float("nan"), primary_mae=0.1
        )
        assert "nonfinite_reference_mae" in poisoned.reasons

    def test_shadow_delta_bound(self):
        stats = ShadowStats(requests=10, finite=10, delta_sum=5.0,
                            delta_count=10)
        gate = PromotionGate(min_shadow_requests=10, max_shadow_delta=0.1)
        decision = gate.decide(stats, candidate_mae=0.05, primary_mae=0.05)
        assert "shadow_delta_excessive" in decision.reasons


class TestShadowToPromotion:
    def test_good_candidate_promotes_after_window(self, rig):
        service, controller, model, x = rig
        controller.start_shadow(clone_model(model, seed=1))
        for row in x[:8]:
            assert service.analyze(row, deadline_s=5.0).ok
        assert _wait_state(controller, "watch")
        assert controller.last_decision.promote
        assert controller.journal.counts()["promoted"] == 1
        assert service.stats()["model_swaps"] == 1
        # Both the rollback point and the promoted model are checkpointed.
        assert controller.checkpoints.exists("serving")
        assert controller.checkpoints.exists("serving-rollback")

    def test_nan_candidate_rejected_and_never_served(self, rig):
        service, controller, model, x = rig
        controller.start_shadow(NaNModel())
        results = [service.analyze(row, deadline_s=5.0) for row in x[:8]]
        assert all(r.ok for r in results)
        assert all(np.isfinite(np.asarray(r.value)).all() for r in results)
        assert _wait_state(controller, "nominal")
        assert not controller.last_decision.promote
        assert "nonfinite_shadow_outputs" in controller.last_decision.reasons
        assert controller.journal.counts()["rejected"] == 1
        assert service.stats()["model_swaps"] == 0

    def test_shadow_candidate_error_is_contained(self, rig):
        service, controller, model, x = rig

        class ExplodingModel:
            def predict(self, batch):
                raise RuntimeError("boom")

        controller.start_shadow(ExplodingModel())
        results = [service.analyze(row, deadline_s=5.0) for row in x[:8]]
        assert all(r.ok for r in results)
        assert _wait_state(controller, "nominal")
        assert controller.shadow_stats.errors >= 1
        assert controller.journal.counts()["rejected"] == 1
        assert "nonfinite_shadow_outputs" in controller.last_decision.reasons


class TestObserve:
    def test_drift_alarm_triggers_recalibration(self, rig):
        service, controller, model, x = rig
        controller.recalibrate = lambda status: clone_model(model, seed=2)
        assert controller.observe(FakeStatus(False)) == "none"
        assert controller.observe(FakeStatus(True)) == "shadow_started"
        assert controller.state == "shadowing"

    def test_recalibration_failure_backs_off(self, rig):
        service, controller, model, x = rig

        def broken(status):
            raise RuntimeError("no reference gas")

        controller.recalibrate = broken
        assert controller.observe(FakeStatus(True)) == "recalibrate_failed"
        assert controller.journal.counts()["rejected"] == 1
        # Cooldown swallows the next alarms instead of hammering retries.
        assert controller.observe(FakeStatus(True)) == "cooldown"

    def test_no_recalibrator_means_no_action(self, rig):
        service, controller, model, x = rig
        assert controller.observe(FakeStatus(True)) == "none"

    def test_watch_clears_after_quiet_window(self, rig):
        service, controller, model, x = rig
        controller.start_shadow(clone_model(model, seed=1))
        for row in x[:8]:
            service.analyze(row, deadline_s=5.0)
        assert _wait_state(controller, "watch")
        for _ in range(controller.watch_observations - 1):
            assert controller.observe(FakeStatus(False)) == "none"
        assert controller.observe(FakeStatus(False)) == "watch_cleared"
        assert controller.state == "nominal"


class TestRollback:
    def test_renewed_drift_in_watch_rolls_back_byte_identically(self, rig):
        service, controller, model, x = rig
        original = model.predict(x[:5])
        controller.start_shadow(clone_model(model, seed=3))
        for row in x[:8]:
            service.analyze(row, deadline_s=5.0)
        assert _wait_state(controller, "watch")
        assert controller.observe(FakeStatus(True)) == "rolled_back"
        assert controller.state == "nominal"
        assert controller.journal.counts()["rolled_back"] == 1
        restored = controller.model.predict(x[:5])
        assert restored.tobytes() == original.tobytes()
        # The service serves the restored model, byte-for-byte.
        served = np.asarray(service.analyze(x[0], deadline_s=5.0).value)
        assert served.tobytes() == original[0].tobytes()

    def test_journal_replays_full_history(self, rig, tmp_path):
        service, controller, model, x = rig
        controller.start_shadow(NaNModel())
        for row in x[:8]:
            service.analyze(row, deadline_s=5.0)
        assert _wait_state(controller, "nominal")
        reopened = PromotionJournal(tmp_path / "promotion.jsonl")
        events = [r["event"] for r in reopened.replay()[0]]
        assert events == ["shadow_started", "rejected"]
        assert [r["seq"] for r in reopened.replay()[0]] == [1, 2]

    def test_snapshot_reports_state(self, rig):
        service, controller, model, x = rig
        snapshot = controller.snapshot()
        assert snapshot["state"] == "nominal"
        assert snapshot["last_decision"] is None
        assert snapshot["shadow"]["requests"] == 0


class TestFrozenService:
    """Promote and rollback keep a frozen service on its InferenceEngine."""

    def _assert_frozen(self, service, model, x):
        engine = service.batch_analyzer.engine
        assert engine is not None
        assert service.stats()["frozen"] == "float32"
        served = np.stack(
            [service.analyze(row, deadline_s=5.0).value for row in x[:10]]
        )
        reference = model.predict(x[:10], validate=False)
        assert float(np.mean(np.abs(served - reference))) <= (
            engine.plan.contract
        )

    def test_promote_and_rollback_keep_the_frozen_engine(self, tmp_path):
        model, x, y = _trained_model()
        batched = batch_analyzer_from_model(model, frozen="float32")
        service = AnalysisService(
            lambda row: batched(row[None, :])[0],
            workers=2,
            queue_size=32,
            expected_length=N_FEATURES,
            batch_analyzer=batched,
        ).start()
        controller = AdaptationController(
            service,
            model,
            CheckpointManager(tmp_path / "ckpt"),
            PromotionJournal(tmp_path / "promotion.jsonl"),
            x[:40],
            y[:40],
            gate=PromotionGate(
                min_shadow_requests=5, max_reference_mae_ratio=2.0
            ),
        )
        try:
            controller.start_shadow(clone_model(model, seed=1))
            for row in x[:8]:
                service.analyze(row, deadline_s=5.0)
            assert _wait_state(controller, "watch")
            self._assert_frozen(service, controller.model, x)
            assert controller.observe(FakeStatus(True)) == "rolled_back"
            self._assert_frozen(service, controller.model, x)
        finally:
            service.stop()


class SeverityStatus:
    """Duck-typed drift status with a scriptable severity."""

    def __init__(self, severity, drifted=True):
        self.severity = severity
        self.drifted = drifted

    def to_record(self):
        return {"drifted": self.drifted}


class TestCooldownGuards:
    """Satellite: severity-scaled backoff must survive inf/NaN severity."""

    def test_infinite_severity_clamps_to_the_scale_cap(self, rig):
        _, controller, _, _ = rig  # cooldown_observations=3, cap scale 4.0
        cooldown = controller._cooldown_after(SeverityStatus(np.inf))
        assert isinstance(cooldown, int)
        assert cooldown == 1  # ceil(3 / 4), never 0, never an OverflowError

    def test_nan_severity_reads_as_unknown_and_keeps_full_backoff(self, rig):
        _, controller, _, _ = rig
        assert controller._cooldown_after(SeverityStatus(np.nan)) == 3

    def test_nominal_and_subnominal_severity_keep_full_backoff(self, rig):
        _, controller, _, _ = rig
        assert controller._cooldown_after(SeverityStatus(1.0)) == 3
        assert controller._cooldown_after(SeverityStatus(0.25)) == 3

    def test_moderate_severity_shortens_the_backoff(self, rig):
        _, controller, _, _ = rig
        assert controller._cooldown_after(SeverityStatus(2.0)) == 2
        assert controller._cooldown_after(SeverityStatus(3.0)) == 1

    def test_missing_or_unusable_severity_keeps_full_backoff(self, rig):
        _, controller, _, _ = rig
        assert controller._cooldown_after(None) == 3
        assert controller._cooldown_after(FakeStatus(True)) == 3
        assert controller._cooldown_after(SeverityStatus(None)) == 3
        assert controller._cooldown_after(SeverityStatus("broken")) == 3

    def test_recalibrate_failure_with_infinite_severity_still_backs_off(
        self, rig
    ):
        service, controller, model, x = rig

        def broken(status):
            raise RuntimeError("no reference gas")

        controller.recalibrate = broken
        status = SeverityStatus(np.inf)
        assert controller.observe(status) == "recalibrate_failed"
        # The clamped cooldown is a finite positive int: exactly one
        # quiet observation, then retries resume instead of spinning.
        assert controller.observe(status) == "cooldown"
        assert controller.observe(status) == "recalibrate_failed"


class TestIntervalCoverageGate:
    """Satellite: PromotionGate's conformal interval-coverage criterion."""

    def _stats(self):
        return ShadowStats(requests=10, finite=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PromotionGate(min_interval_coverage=0.0)
        with pytest.raises(ValueError):
            PromotionGate(min_interval_coverage=1.5)

    def test_low_coverage_blocks_promotion(self):
        gate = PromotionGate(
            min_shadow_requests=10, min_interval_coverage=0.9
        )
        decision = gate.decide(
            self._stats(), 0.05, 0.05, interval_coverage=0.7
        )
        assert not decision.promote
        assert "interval_coverage_low" in decision.reasons
        assert decision.detail["interval_coverage"] == pytest.approx(0.7)

    def test_nonfinite_coverage_blocks_promotion(self):
        gate = PromotionGate(
            min_shadow_requests=10, min_interval_coverage=0.9
        )
        decision = gate.decide(
            self._stats(), 0.05, 0.05, interval_coverage=float("nan")
        )
        assert "interval_coverage_low" in decision.reasons

    def test_missing_coverage_blocks_when_required(self):
        gate = PromotionGate(
            min_shadow_requests=10, min_interval_coverage=0.9
        )
        decision = gate.decide(self._stats(), 0.05, 0.05)
        assert not decision.promote
        assert "interval_coverage_unavailable" in decision.reasons
        assert decision.detail["interval_coverage"] is None

    def test_sufficient_coverage_promotes(self):
        gate = PromotionGate(
            min_shadow_requests=10, min_interval_coverage=0.9
        )
        decision = gate.decide(
            self._stats(), 0.05, 0.05, interval_coverage=0.93
        )
        assert decision.promote

    def test_gate_without_requirement_ignores_coverage(self):
        decision = PromotionGate(min_shadow_requests=10).decide(
            self._stats(), 0.05, 0.05, interval_coverage=0.1
        )
        assert decision.promote


class TestCoverageProbe:
    def test_probe_coverage_gates_the_live_decision(self, rig):
        service, controller, model, x = rig
        controller.gate = PromotionGate(
            min_shadow_requests=5,
            max_reference_mae_ratio=2.0,
            min_interval_coverage=0.9,
        )
        controller.coverage_probe = lambda candidate: 0.95
        controller.start_shadow(clone_model(model, seed=1))
        for row in x[:8]:
            assert service.analyze(row, deadline_s=5.0).ok
        assert _wait_state(controller, "watch")
        assert controller.last_decision.promote
        assert controller.last_decision.detail[
            "interval_coverage"
        ] == pytest.approx(0.95)

    def test_raising_probe_reads_as_unavailable_and_blocks(self, rig):
        service, controller, model, x = rig
        controller.gate = PromotionGate(
            min_shadow_requests=5,
            max_reference_mae_ratio=2.0,
            min_interval_coverage=0.9,
        )

        def broken_probe(candidate):
            raise RuntimeError("no calibration split")

        controller.coverage_probe = broken_probe
        controller.start_shadow(clone_model(model, seed=1))
        for row in x[:8]:
            service.analyze(row, deadline_s=5.0)
        assert _wait_state(controller, "nominal")
        assert not controller.last_decision.promote
        assert (
            "interval_coverage_unavailable"
            in controller.last_decision.reasons
        )
        assert service.stats()["model_swaps"] == 0
