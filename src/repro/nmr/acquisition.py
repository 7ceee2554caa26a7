"""The virtual 43 MHz benchtop NMR spectrometer.

The paper measured the reaction online with a medium-resolution benchtop
instrument and labelled it with a high-resolution reference analysis.  Only
the benchtop is modelled as an instrument: broad lines, visible noise,
peak-position jitter, concentration-dependent matrix shifts and a weak
baseline roll.  The reference labels are true concentrations with a small
multiplicative error (:class:`~repro.nmr.reaction.FlowReactorExperiment`);
no high-field spectrum is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.nmr.hard_model import ChemicalShiftAxis, HardModelSet

__all__ = ["NMRSpectrum", "VirtualNMRSpectrometer"]


@dataclass
class NMRSpectrum:
    """A sampled 1H NMR spectrum on a uniform chemical-shift axis."""

    axis: ChemicalShiftAxis
    intensities: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        if self.intensities.ndim != 1:
            raise ValueError("intensities must be 1-D")
        if self.intensities.size != self.axis.points:
            raise ValueError(
                f"intensities length {self.intensities.size} != axis points "
                f"{self.axis.points}"
            )

    def __len__(self) -> int:
        return self.intensities.size


class VirtualNMRSpectrometer:
    """A 43 MHz benchtop spectrometer: renders mixture spectra from hard
    models with instrument effects."""

    def __init__(
        self,
        models: HardModelSet,
        noise_sigma: float = 0.015,
        shift_jitter: float = 0.006,
        broadening_jitter: float = 0.04,
        baseline_amplitude: float = 0.01,
        matrix_shift_coeff: float = 0.008,
        phase_error_sigma: float = 0.06,
        peak_jitter: float = 0.004,
        seed: int = 0,
    ):
        # Written so that NaN fails each check too.
        for label, value in (
            ("noise_sigma", noise_sigma),
            ("shift_jitter", shift_jitter),
            ("broadening_jitter", broadening_jitter),
            ("baseline_amplitude", baseline_amplitude),
            ("phase_error_sigma", phase_error_sigma),
            ("peak_jitter", peak_jitter),
        ):
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{label} must be finite and non-negative")
        if not np.isfinite(matrix_shift_coeff):
            raise ValueError("matrix_shift_coeff must be finite")
        self.models = models
        self.noise_sigma = float(noise_sigma)
        self.shift_jitter = float(shift_jitter)
        self.broadening_jitter = float(broadening_jitter)
        self.baseline_amplitude = float(baseline_amplitude)
        self.matrix_shift_coeff = float(matrix_shift_coeff)
        self.phase_error_sigma = float(phase_error_sigma)
        self.peak_jitter = float(peak_jitter)
        self._rng = np.random.default_rng(seed)

    @classmethod
    def benchtop(cls, models: HardModelSet, seed: int = 0) -> "VirtualNMRSpectrometer":
        """The paper's online sensor with its default instrument effects."""
        return cls(models, seed=seed)

    def acquire(
        self,
        concentrations: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> NMRSpectrum:
        """Acquire one spectrum of a mixture (concentrations in mol/L).

        Every name must be one of ``models.names`` and every concentration
        finite and non-negative; both are checked before the first draw.
        """
        unknown = sorted(set(concentrations) - set(self.models.names))
        if unknown:
            raise ValueError(
                f"unknown components {unknown}; known: {self.models.names}"
            )
        for name, value in concentrations.items():
            if not 0.0 <= value < np.inf:
                raise ValueError(
                    f"concentration for {name} must be finite and "
                    f"non-negative, got {value}"
                )
        rng = rng if rng is not None else self._rng
        total = float(sum(concentrations.values()))
        phase = rng.normal(0.0, self.phase_error_sigma)
        signal = np.zeros(self.models.axis.points)
        for model in self.models.models:
            c = float(concentrations.get(model.name, 0.0))
            if c == 0:
                continue
            # Matrix effect: lines shift with total solute load, plus
            # random per-acquisition jitter (field drift, lock errors) and
            # independent per-line scatter the IHM model class cannot fit.
            shift = self.matrix_shift_coeff * total + rng.normal(
                0.0, self.shift_jitter
            )
            broadening = max(1.0 + rng.normal(0.0, self.broadening_jitter), 0.2)
            peak_shifts = rng.normal(0.0, self.peak_jitter, size=len(model.peaks))
            signal += model.evaluate(
                self.models.axis,
                shift=shift,
                broadening=broadening,
                concentration=c,
                phase=phase,
                peak_shifts=peak_shifts,
            )
        signal = signal + self._baseline(rng)
        signal = signal + rng.normal(0.0, self.noise_sigma, size=signal.shape)
        return NMRSpectrum(
            self.models.axis,
            signal,
            metadata={"concentrations": dict(concentrations)},
        )

    def _baseline(self, rng: np.random.Generator) -> np.ndarray:
        if self.baseline_amplitude == 0:
            return np.zeros(self.models.axis.points)
        grid = self.models.axis.values()
        span = self.models.axis.stop - self.models.axis.start
        phase = rng.uniform(0.0, 2.0 * np.pi)
        # One slow roll across the spectrum (imperfect phase correction).
        return self.baseline_amplitude * np.sin(
            2.0 * np.pi * (grid - self.models.axis.start) / (2.0 * span) + phase
        )
