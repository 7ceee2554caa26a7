"""Unit tests for closed-loop process control."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.closed_loop import (
    ClosedLoopSimulation,
    ControlStep,
    PIController,
    ann_analyzer,
    ihm_analyzer,
)
from repro.nmr import (
    IHMAnalysis,
    ReactionConditions,
    ReactionKinetics,
    VirtualNMRSpectrometer,
    mndpa_reaction_models,
)
from repro.nmr.reaction import OBSERVED_COMPONENTS
from repro.reliability import AcquisitionError, RetryPolicy

MODELS = mndpa_reaction_models()


class TestPIController:
    def test_proportional_action(self):
        controller = PIController(kp=2.0, ki=0.0, setpoint=1.0,
                                  output_min=-10.0, output_max=10.0)
        assert controller.update(0.5) == pytest.approx(1.0)  # kp * error

    def test_integral_accumulates(self):
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=-10.0, output_max=10.0)
        assert controller.update(0.0) == pytest.approx(1.0)
        assert controller.update(0.0) == pytest.approx(2.0)

    def test_output_clamped_with_antiwindup(self):
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=0.0, output_max=1.5)
        for _ in range(10):
            out = controller.update(0.0)
        assert out == 1.5
        # After saturation, one step of negative error should unwind fast
        # (the integral did not keep growing while clamped).
        out = controller.update(2.0)
        assert out < 1.5

    def test_integration_continues_exactly_at_the_saturation_boundary(self):
        # raw == output_max is NOT saturation: integration must proceed.
        # (Regression for the old `raw != output` float-equality test, which
        # conflated "landed exactly on the bound" with "clamped".)
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=0.0, output_max=2.0)
        assert controller.update(0.0) == pytest.approx(1.0)
        assert controller.update(0.0) == pytest.approx(2.0)  # lands on max
        assert controller._integral == pytest.approx(2.0)  # integrated
        controller.update(0.0)  # now truly clamped: blocked
        assert controller._integral == pytest.approx(2.0)

    def test_integral_bounded_under_sustained_saturation(self):
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=0.0, output_max=1.5)
        for _ in range(100):
            controller.update(0.0)
        # Conditional integration: the integral stops the moment another
        # step would push the raw output deeper past the bound.
        assert controller._integral <= 1.5 + 1e-9

    def test_wound_integral_unwinds_while_still_saturated(self):
        # A controller whose integral got wound far past the bound (e.g. a
        # setpoint change mid-run) is still saturated during recovery; the
        # old back-out logic froze the integral in that state forever.
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=0.0, output_max=1.0)
        controller._integral = 5.0
        assert controller.update(1.5) == 1.0  # saturated high...
        assert controller._integral < 5.0  # ...but unwinding
        for _ in range(20):
            controller.update(1.5)
        # Once unwound, the output leaves the rail.
        assert controller.update(1.5) < 1.0

    def test_reset(self):
        controller = PIController(kp=0.0, ki=1.0, setpoint=1.0,
                                  output_min=-10, output_max=10)
        controller.update(0.0)
        controller.reset()
        assert controller.update(0.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PIController(1.0, 1.0, 1.0, output_min=1.0, output_max=0.0)
        controller = PIController(1.0, 1.0, 1.0, output_min=0.0, output_max=1.0)
        with pytest.raises(ValueError):
            controller.update(0.5, dt=0.0)


def _oracle_analyzer():
    """A perfect, instantaneous analyzer via IHM on noise-free models —
    here replaced by direct IHM for speed-independent control tests."""
    ihm = IHMAnalysis(MODELS, fit_shifts=False, fit_broadening=False)
    return ihm_analyzer(ihm)


def _quiet_spectrometer():
    return VirtualNMRSpectrometer(
        MODELS, noise_sigma=0.002, shift_jitter=0.001, broadening_jitter=0.01,
        baseline_amplitude=0.001, phase_error_sigma=0.005, peak_jitter=0.0005,
        matrix_shift_coeff=0.0, seed=0,
    )


class TestClosedLoop:
    def test_loop_reaches_setpoint(self):
        simulation = ClosedLoopSimulation(
            ReactionKinetics(),
            _quiet_spectrometer(),
            _oracle_analyzer(),
            target_product=0.15,
        )
        trajectory = simulation.run(25, np.random.default_rng(0))
        final = np.mean([s.true_product for s in trajectory[-5:]])
        assert final == pytest.approx(0.15, rel=0.1)

    def test_settling_step_detection(self):
        target = 0.15
        simulation = ClosedLoopSimulation(
            ReactionKinetics(),
            _quiet_spectrometer(),
            _oracle_analyzer(),
            target_product=target,
        )
        trajectory = simulation.run(25, np.random.default_rng(0))
        settled = ClosedLoopSimulation.settling_step(trajectory, target, band=0.15)
        assert settled is not None
        assert settled < 20

    def test_disturbance_rejection(self):
        """A feed-concentration disturbance mid-run is corrected."""
        target = 0.15

        def disturbance(step, conditions):
            if step >= 12:
                return ReactionConditions(
                    feed_toluidine=conditions.feed_toluidine * 0.8,
                    feed_lihmds=conditions.feed_lihmds,
                    feed_ofnb=conditions.feed_ofnb,
                    temperature_c=conditions.temperature_c,
                    residence_time_s=conditions.residence_time_s,
                )
            return conditions

        simulation = ClosedLoopSimulation(
            ReactionKinetics(), _quiet_spectrometer(), _oracle_analyzer(),
            target_product=target, disturbance=disturbance,
        )
        trajectory = simulation.run(40, np.random.default_rng(1))
        final = np.mean([s.true_product for s in trajectory[-5:]])
        assert final == pytest.approx(target, rel=0.12)

    def test_trajectory_records_analyzer_latency(self):
        simulation = ClosedLoopSimulation(
            ReactionKinetics(), _quiet_spectrometer(), _oracle_analyzer(),
            target_product=0.15,
        )
        trajectory = simulation.run(3, np.random.default_rng(0))
        assert all(s.analyzer_seconds > 0 for s in trajectory)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopSimulation(
                ReactionKinetics(), _quiet_spectrometer(), _oracle_analyzer(),
                target_product=0.0,
            )
        simulation = ClosedLoopSimulation(
            ReactionKinetics(), _quiet_spectrometer(), _oracle_analyzer(),
        )
        with pytest.raises(ValueError):
            simulation.run(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ClosedLoopSimulation.settling_step([], 0.1, band=0.0)

    def test_ann_analyzer_wrapper(self):
        from repro import nn

        model = nn.Sequential([nn.Dense(4)])
        model.build((1700,), seed=0)
        analyzer = ann_analyzer(model)
        estimate, seconds = analyzer(np.zeros(1700))
        assert estimate.shape == (4,)
        assert seconds > 0


class _RecordingController(PIController):
    """A PI controller that logs its integral around every update."""

    def __post_init__(self):
        super().__post_init__()
        self.integrals = []  # (before, after) per update

    def update(self, measurement, dt=1.0):
        before = self._integral
        output = super().update(measurement, dt)
        self.integrals.append((before, self._integral))
        return output


class TestBlindPeriod:
    """Period 1 of 3 is blind; it must hold the actuator, nothing more."""

    @staticmethod
    def _run(cause):
        scans = []
        seen = []

        def acquire(outlet, rng=None):
            scans.append(len(scans))
            scan = len(scans) - 1
            if cause == "lost" and scan in (1, 2):  # both attempts fail
                raise AcquisitionError("scan lost")
            intensities = np.ones(8)
            if cause == "non_finite_scan" and scan == 1:
                intensities[3] = np.nan
            return SimpleNamespace(intensities=intensities)

        def analyzer(intensities):
            seen.append(intensities)
            estimate = np.full(len(OBSERVED_COMPONENTS), 0.1)
            if len(seen) == 2 and cause == "analyzer_raised":
                raise ValueError("implausible scan")
            if len(seen) == 2 and cause == "non_finite_estimate":
                estimate[0] = np.inf
            return estimate, 0.001

        controller = _RecordingController(
            kp=600.0, ki=150.0, setpoint=0.2, output_min=10.0,
            output_max=600.0,
        )
        simulation = ClosedLoopSimulation(
            ReactionKinetics(), SimpleNamespace(acquire=acquire), analyzer,
            target_product=0.2, controller=controller,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, sleep=lambda s: None
            ),
        )
        trajectory = simulation.run(3, np.random.default_rng(0))
        return trajectory, controller, seen

    @pytest.mark.parametrize(
        "cause",
        ["lost", "non_finite_scan", "analyzer_raised", "non_finite_estimate"],
    )
    def test_blind_period_holds_the_actuator(self, cause):
        trajectory, controller, seen = self._run(cause)
        assert [step.degraded for step in trajectory] == [False, True, False]
        # The blind period did not move the pump ...
        assert trajectory[2].residence_time_s == trajectory[1].residence_time_s
        assert trajectory[1].residence_time_s != trajectory[0].residence_time_s
        # ... nor touch the integral: only periods 0 and 2 updated, and
        # period 2 started from the integral period 0 left.
        assert len(controller.integrals) == 2
        assert controller.integrals[1][0] == controller.integrals[0][1]
        assert controller.integrals[1][1] != controller.integrals[1][0]
        assert trajectory[1].estimated_product == trajectory[0].estimated_product
        assert trajectory[1].analyzer_seconds == 0.0
        # A non-finite scan never reaches the analyzer.
        assert all(np.isfinite(data).all() for data in seen)
        expected_calls = 2 if cause in ("lost", "non_finite_scan") else 3
        assert len(seen) == expected_calls
