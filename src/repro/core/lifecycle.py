"""Lifecycle monitoring and automatic re-adaptation.

The paper's conclusion names the open problem this module addresses: "it
has to be investigated how these systems can be automatically and reliably
adapted to perturbations or changes in parameters within the life cycle of
a production."

:class:`DriftMonitor` watches the stream of incoming spectra through the
plausibility checker's unexplained-residual statistic: against a baseline
established on simulated training data, an exponentially weighted moving
average of the residual fraction rising above an alarm factor signals that
the instrument has drifted away from the state the simulator (and hence
the network) was built for.  Recalibration is deliberately just
:meth:`~repro.core.pipeline.MSToolchain.run` again, with fresh reference
measurements: the paper's point is that the *same* automated flow that
commissioned the system also re-adapts it to the instrument's current
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.ms.plausibility import PlausibilityChecker
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MassSpectrum
from repro.observability.runtime import get_registry

__all__ = ["DriftStatus", "DriftMonitor"]


@dataclass(frozen=True)
class DriftStatus:
    """State of the monitor after one observation."""

    drifted: bool
    ewma_residual: float
    baseline_residual: float
    observations: int

    @property
    def severity(self) -> float:
        """EWMA residual relative to baseline (1.0 = nominal).

        Degenerate baselines are handled explicitly rather than dividing
        by zero: a zero (or negative) ``baseline_residual`` with *any*
        positive observed residual returns ``inf`` — against a perfect
        baseline, any unexplained residual is infinitely anomalous and
        callers comparing ``severity`` against an alarm threshold will
        always fire.  When both baseline and observation are zero the
        status is nominal and severity is exactly ``1.0``.  Callers that
        persist severity (JSON, provenance records) must be prepared for
        the non-finite value.
        """
        if self.baseline_residual <= 0:
            return float("inf") if self.ewma_residual > 0 else 1.0
        return self.ewma_residual / self.baseline_residual


class DriftMonitor:
    """EWMA drift detector over plausibility residuals."""

    def __init__(
        self,
        simulator: MassSpectrometerSimulator,
        task_compounds: Sequence[str],
        alarm_factor: float = 2.5,
        smoothing: float = 0.1,
        warmup: int = 5,
        baseline_samples: int = 200,
        rng: Optional[np.random.Generator] = None,
        name: str = "default",
    ):
        """``alarm_factor`` is how far above the simulated baseline the
        smoothed residual must rise before drift is declared; ``warmup``
        observations are collected before any alarm can fire.  ``name``
        labels this monitor's telemetry series."""
        if not alarm_factor > 1.0:  # also refuses NaN, which never alarms
            raise ValueError("alarm_factor must exceed 1.0")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.checker = PlausibilityChecker(simulator, task_compounds)
        self.alarm_factor = float(alarm_factor)
        self.smoothing = float(smoothing)
        self.warmup = int(warmup)
        self.name = str(name)
        self._ewma: Optional[float] = None
        self._count = 0
        self.skipped_nonfinite = 0
        self._alarmed = False
        registry = get_registry()
        self._m_severity = registry.gauge(
            "drift_severity", "EWMA residual relative to baseline"
        ).labels(monitor=self.name)
        self._m_alarms = registry.counter(
            "drift_alarms_total", "drift alarm onsets (not re-fires)"
        ).labels(monitor=self.name)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.baseline_residual = self._establish_baseline(
            simulator, task_compounds, baseline_samples, rng
        )

    def _establish_baseline(
        self, simulator, task_compounds, n: int, rng: np.random.Generator
    ) -> float:
        """Median residual fraction over freshly simulated in-task spectra."""
        spectra, _ = simulator.generate_dataset(task_compounds, n, rng)
        residuals = [
            self.checker.check(row).residual_fraction for row in spectra
        ]
        return float(np.median(residuals))

    def observe(self, spectrum: Union[MassSpectrum, np.ndarray]) -> DriftStatus:
        """Feed one production spectrum; returns the updated drift status.

        Non-finite spectra (NaN/inf channels from a faulty detector) are
        skipped rather than folded into the EWMA — one bad scan must not
        poison the drift statistic forever.  Skips are counted in
        :attr:`skipped_nonfinite` and leave the status unchanged.
        """
        data = (
            spectrum.intensities
            if isinstance(spectrum, MassSpectrum)
            else np.asarray(spectrum, dtype=np.float64)
        )
        if not np.isfinite(data).all():
            self.skipped_nonfinite += 1
            return self._status()
        report = self.checker.check(spectrum)
        value = report.residual_fraction
        if not np.isfinite(value):
            self.skipped_nonfinite += 1
            return self._status()
        if self._ewma is None:
            self._ewma = value
        else:
            self._ewma = (
                self.smoothing * value + (1.0 - self.smoothing) * self._ewma
            )
        self._count += 1
        return self._status()

    def _status(self) -> DriftStatus:
        """The monitor's current state as a DriftStatus."""
        ewma = self._ewma if self._ewma is not None else self.baseline_residual
        drifted = (
            self._count >= self.warmup
            and ewma > self.alarm_factor * max(self.baseline_residual, 1e-6)
        )
        status = DriftStatus(
            drifted=drifted,
            ewma_residual=float(ewma),
            baseline_residual=self.baseline_residual,
            observations=self._count,
        )
        self._m_severity.set(status.severity)
        if drifted and not self._alarmed:
            # Count alarm *onsets*: a sustained excursion is one alarm,
            # however many observations it spans.
            self._alarmed = True
            self._m_alarms.inc()
        elif not drifted:
            self._alarmed = False
        return status

    def reset(self) -> None:
        """Clear the observation state (e.g. after recalibration)."""
        self._ewma = None
        self._count = 0
        self.skipped_nonfinite = 0
        self._alarmed = False
