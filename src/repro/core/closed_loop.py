"""Closed-loop process control driven by spectroscopic ANN predictions.

The paper's opening argument: traditional MS/NMR analysis "prevents their
utilization for real-time closed-loop process control", while ANN
evaluation in milliseconds enables exactly that.  This module closes the
loop on the virtual flow reactor: a PI controller adjusts the reactor's
residence time to hold a target product concentration, with the measured
variable supplied not by an oracle but by an analyzer (ANN, IHM, or any
callable) reading benchtop NMR spectra of the reactor output.

Because the plant responds once per control period, an analyzer that takes
longer than the period (IHM at commercial speed) forces a slower loop —
the latency argument of §III.B.3 made operational.

One degradation rule covers every bad period: when the loop is *blind* —
the scan was lost, a scan intensity is not finite, the analyzer raised, or
its estimate is not finite — the controller is not updated and the
actuator holds its last value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.reaction import OBSERVED_COMPONENTS, ReactionConditions, ReactionKinetics
from repro.reliability.faults import AcquisitionError
from repro.reliability.retry import RetryPolicy

__all__ = ["PIController", "ControlStep", "ClosedLoopSimulation"]

_PRODUCT_INDEX = OBSERVED_COMPONENTS.index("MNDPA")


@dataclass
class PIController:
    """A discrete proportional-integral controller with output clamping."""

    kp: float
    ki: float
    setpoint: float
    output_min: float
    output_max: float
    _integral: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if self.output_max <= self.output_min:
            raise ValueError("output_max must exceed output_min")

    def update(self, measurement: float, dt: float = 1.0) -> float:
        """One control step; returns the new actuator value.

        Anti-windup is conditional integration: the integral only
        accumulates while the actuator is unsaturated, or while the error
        drives the output *back toward* the permitted range.  The
        saturation test is the explicit clamping condition (``raw`` beyond
        the bound), not a float-equality comparison of the clipped value —
        exact equality misclassifies ``raw`` landing on a bound and is one
        rounding error away from silently disabling the back-out.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        error = self.setpoint - measurement
        candidate = self._integral + error * dt
        raw = self.kp * error + self.ki * candidate
        output = float(np.clip(raw, self.output_min, self.output_max))
        winding_deeper = (raw > self.output_max and error > 0) or (
            raw < self.output_min and error < 0
        )
        if not winding_deeper:
            self._integral = candidate
        return output

    def reset(self) -> None:
        self._integral = 0.0


@dataclass(frozen=True)
class ControlStep:
    """One sample of the closed-loop trajectory.

    ``degraded`` marks blind steps: the controller held its last actuator
    value instead of updating, and ``estimated_product`` repeats the last
    good estimate.
    """

    step: int
    residence_time_s: float
    true_product: float
    estimated_product: float
    analyzer_seconds: float
    degraded: bool = False


class ClosedLoopSimulation:
    """Holds a product-concentration setpoint on the virtual reactor.

    The actuator is the residence time (pump speed); the measured variable
    is the MNDPA concentration as estimated by ``analyzer`` from a fresh
    benchtop spectrum each control period.

    ``analyzer(spectrum_intensities) -> (concentration_vector, seconds)``
    where the vector follows :data:`OBSERVED_COMPONENTS` order.  An
    analyzer that refuses a scan (e.g. a plausibility gate) raises; that
    period is blind, like a lost scan.
    """

    def __init__(
        self,
        kinetics: ReactionKinetics,
        spectrometer: VirtualNMRSpectrometer,
        analyzer: Callable[[np.ndarray], tuple],
        target_product: float = 0.20,
        base_conditions: ReactionConditions = ReactionConditions(),
        controller: Optional[PIController] = None,
        disturbance: Optional[Callable[[int, ReactionConditions], ReactionConditions]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if target_product <= 0:
            raise ValueError("target_product must be positive")
        self.kinetics = kinetics
        self.spectrometer = spectrometer
        self.analyzer = analyzer
        self.target_product = float(target_product)
        self.base_conditions = base_conditions
        self.controller = controller if controller is not None else PIController(
            kp=600.0, ki=150.0, setpoint=self.target_product,
            output_min=10.0, output_max=600.0,
        )
        self.disturbance = disturbance
        self.retry_policy = retry_policy

    def run(self, n_steps: int, rng: np.random.Generator) -> List[ControlStep]:
        """Simulate ``n_steps`` control periods; returns the trajectory.

        With a ``retry_policy``, a dropped scan is re-acquired within the
        control period; if every attempt fails the period is blind.
        Without a policy, acquisition errors propagate.  A blind period
        skips the controller update (the actuator holds) and is marked
        ``degraded``.
        """
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        residence = self.base_conditions.residence_time_s
        last_estimate = self.target_product
        trajectory: List[ControlStep] = []
        for step in range(n_steps):
            conditions = replace(
                self.base_conditions, residence_time_s=residence
            )
            if self.disturbance is not None:
                conditions = self.disturbance(step, conditions)
            outlet = self.kinetics.outlet_concentrations(conditions)
            estimate = self._estimate(self._acquire(outlet, rng))
            seconds = 0.0
            if estimate is not None:
                last_estimate, seconds = estimate
                residence = self.controller.update(last_estimate)
            trajectory.append(
                ControlStep(
                    step=step,
                    residence_time_s=conditions.residence_time_s,
                    true_product=outlet["MNDPA"],
                    estimated_product=last_estimate,
                    analyzer_seconds=seconds,
                    degraded=estimate is None,
                )
            )
        return trajectory

    def _estimate(self, spectrum):
        """``(product estimate, analyzer seconds)``, or None when blind.

        A non-finite scan is blind before it can reach the analyzer.
        """
        if spectrum is None or not np.isfinite(spectrum.intensities).all():
            return None
        try:
            estimate, seconds = self.analyzer(spectrum.intensities)
        except Exception:
            return None
        estimate = np.asarray(estimate, dtype=np.float64)
        if not np.isfinite(estimate).all():
            return None
        return float(estimate[_PRODUCT_INDEX]), float(seconds)

    def _acquire(self, outlet, rng):
        """One spectrum, or None if acquisition failed after all retries."""
        if self.retry_policy is None:
            return self.spectrometer.acquire(outlet, rng=rng)
        try:
            return self.retry_policy.call(
                self.spectrometer.acquire, outlet, rng=rng
            )
        except AcquisitionError:
            return None

    @staticmethod
    def settling_step(
        trajectory: List[ControlStep], target: float, band: float = 0.1
    ) -> Optional[int]:
        """First step after which the true product stays within ±band of
        target; ``None`` if it never settles."""
        if band <= 0:
            raise ValueError("band must be positive")
        lower, upper = target * (1 - band), target * (1 + band)
        for i in range(len(trajectory)):
            tail = trajectory[i:]
            if all(lower <= s.true_product <= upper for s in tail):
                return i
        return None


def ann_analyzer(model) -> Callable[[np.ndarray], tuple]:
    """Wrap a trained network as a timed closed-loop analyzer."""
    import time

    def analyze(intensities: np.ndarray) -> tuple:
        start = time.perf_counter()
        estimate = model.predict(intensities[None, :])[0]
        return estimate, time.perf_counter() - start

    return analyze


def ihm_analyzer(ihm) -> Callable[[np.ndarray], tuple]:
    """Wrap an :class:`~repro.nmr.ihm.IHMAnalysis` as a timed analyzer."""

    def analyze(intensities: np.ndarray) -> tuple:
        result = ihm.analyze(intensities)
        vector = result.concentration_vector(list(OBSERVED_COMPONENTS))
        return vector, result.elapsed_seconds

    return analyze
