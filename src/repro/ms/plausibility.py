"""Input-plausibility checking for deployed networks.

The paper notes that a trained network "can only be used for a measurement
task defined in advance and that in practical application measures are
required to check the plausibility of the input data ... in the case of
inputs containing unknown compounds or completely different substances, no
meaningful output can be expected."

This module implements that guard: a spectrum is plausible for a task if it
is explained well by non-negative combinations of the task compounds'
simulated responses (plus the known instrument artifacts).  Spectra with
large unexplained residual — unknown compounds, gross drift, garbage input
— are flagged before the ANN output is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MassSpectrum

__all__ = ["PlausibilityReport", "PlausibilityChecker"]


@dataclass(frozen=True)
class PlausibilityReport:
    """Outcome of checking one spectrum."""

    plausible: bool
    residual_fraction: float  # unexplained signal / total signal
    largest_unexplained_mz: float
    largest_unexplained_intensity: float
    fitted_concentrations: np.ndarray

    def __bool__(self) -> bool:
        return self.plausible


class PlausibilityChecker:
    """Flags spectra that the measurement task cannot explain."""

    def __init__(
        self,
        simulator: MassSpectrometerSimulator,
        task_compounds: Sequence[str],
        residual_threshold: float = 0.22,
        peak_threshold: float = 0.12,
    ):
        """``residual_threshold`` bounds the tolerated unexplained fraction
        of total signal; ``peak_threshold`` bounds any single unexplained
        peak (relative to the spectrum maximum)."""
        if not task_compounds:
            raise ValueError("task_compounds must be non-empty")
        if residual_threshold <= 0 or peak_threshold <= 0:
            raise ValueError("thresholds must be positive")
        self.simulator = simulator
        self.task_compounds = tuple(task_compounds)
        self.residual_threshold = float(residual_threshold)
        self.peak_threshold = float(peak_threshold)
        # Design matrix: task responses + the ignition-gas artifact + a
        # constant column absorbing baseline offset.
        responses = simulator.response_matrix(self.task_compounds)
        artifact = simulator._ignition_gas_signal()
        constant = np.ones(simulator.axis.size)
        self._design = np.vstack([responses, artifact[None, :], constant[None, :]])

    def check(self, spectrum: Union[MassSpectrum, np.ndarray]) -> PlausibilityReport:
        """Check one spectrum (raw intensities or a MassSpectrum).

        A spectrum of the wrong length or with a non-finite channel raises
        a :class:`~repro.reliability.validation.ValidationError`.
        """
        from scipy.optimize import nnls

        from repro.reliability.validation import validate_spectrum

        data = validate_spectrum(spectrum, length=self.simulator.axis.size)
        total = float(np.abs(data).sum())
        if total <= 0:
            return PlausibilityReport(
                plausible=False,
                residual_fraction=1.0,
                largest_unexplained_mz=float(self.simulator.axis.start),
                largest_unexplained_intensity=0.0,
                fitted_concentrations=np.zeros(len(self.task_compounds)),
            )
        # Scale-free fit: normalize to unit maximum like the ANN inputs.
        peak = float(np.max(np.abs(data)))
        normalized = data / peak
        coefficients, _ = nnls(self._design.T, np.clip(normalized, 0.0, None))
        residual = normalized - coefficients @ self._design
        positive_residual = np.clip(residual, 0.0, None)
        residual_fraction = float(
            positive_residual.sum() / max(np.abs(normalized).sum(), 1e-12)
        )
        worst_idx = int(np.argmax(positive_residual))
        worst_intensity = float(positive_residual[worst_idx])
        plausible = (
            residual_fraction <= self.residual_threshold
            and worst_intensity <= self.peak_threshold
        )
        return PlausibilityReport(
            plausible=plausible,
            residual_fraction=residual_fraction,
            largest_unexplained_mz=float(
                self.simulator.axis.values()[worst_idx]
            ),
            largest_unexplained_intensity=worst_intensity,
            fitted_concentrations=coefficients[: len(self.task_compounds)],
        )

    def check_batch(self, spectra: np.ndarray) -> list:
        """Check an ``(n, grid)`` batch; returns one report per row."""
        spectra = np.asarray(spectra, dtype=np.float64)
        if spectra.ndim != 2:
            raise ValueError("expected a 2-D batch of spectra")
        return [self.check(row) for row in spectra]
