"""Parameterized domain-shift scenarios over the spectrum simulators.

The training-data simulator "only considers a static system state"; the
instrument it serves does not stay static.  A :class:`DriftScenario`
names the four shift families the virtual prototype and the related
sim-to-real studies exhibit — sensitivity drift, noise scale/family,
peak-shift severity, baseline wander — as one declarative object that can
be applied to either simulator to manufacture a "shifted-real" instrument:

* **MS** — :func:`shift_characteristics` rewrites
  :class:`~repro.ms.instrument.InstrumentCharacteristics` (gain and
  attenuation-tau for sensitivity, noise sigmas, m/z offset, baseline
  amplitude); :func:`shifted_ms_simulator` wraps that into a new
  :class:`~repro.ms.simulator.MassSpectrometerSimulator`.
* **NMR** — :func:`shifted_nmr_simulator` maps the same axes onto the
  :class:`~repro.nmr.simulator.NMRSpectrumSimulator` surface (broadening
  for sensitivity loss, noise sigma, shift sigma, baseline amplitude).

Scenarios are plain frozen dataclasses, so the matrix layer keys cached
cells by scenario content: :func:`~repro.compute.cache.canonical_key`
encodes a scenario as its ``dataclasses.asdict``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "NOISE_FAMILIES",
    "DriftScenario",
    "scenario_grid",
    "shift_characteristics",
    "shifted_ms_simulator",
    "shifted_nmr_simulator",
]

# "gaussian" scales the additive noise only; "heavy" additionally inflates
# the signal-proportional (shot) component, the tail-heavy failure family.
NOISE_FAMILIES = ("gaussian", "heavy")


@dataclass(frozen=True)
class DriftScenario:
    """One point on the domain-shift axis.

    ``sensitivity_drift`` is the fractional loss of detector sensitivity
    (0 = none, 0.3 = 30% gain loss plus a proportional attenuation-tau
    shrink, which *changes the spectral shape* — the part normalization
    cannot hide).  ``noise_scale`` multiplies the noise sigmas,
    ``noise_family`` picks which sigmas; ``peak_shift`` is an absolute
    mass-axis calibration offset (m/z units on MS, scaled into ppm shift
    sigma on NMR); ``baseline_wander`` multiplies the baseline amplitude.
    """

    name: str
    sensitivity_drift: float = 0.0
    noise_scale: float = 1.0
    noise_family: str = "gaussian"
    peak_shift: float = 0.0
    baseline_wander: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sensitivity_drift < 1.0:
            raise ValueError("sensitivity_drift must be in [0, 1)")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(
                f"noise_family must be one of {NOISE_FAMILIES}, "
                f"got {self.noise_family!r}"
            )
        if self.baseline_wander < 0:
            raise ValueError("baseline_wander must be non-negative")

    @property
    def is_identity(self) -> bool:
        return (
            self.sensitivity_drift == 0.0
            and self.noise_scale == 1.0
            and self.peak_shift == 0.0
            and self.baseline_wander == 1.0
        )

    def scaled(self, fraction: float, name: str = None) -> "DriftScenario":
        """The scenario at ``fraction`` of its severity (0 = identity)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        return DriftScenario(
            name=name if name is not None else f"{self.name}@{fraction:g}",
            sensitivity_drift=self.sensitivity_drift * fraction,
            noise_scale=1.0 + (self.noise_scale - 1.0) * fraction,
            noise_family=self.noise_family,
            peak_shift=self.peak_shift * fraction,
            baseline_wander=1.0 + (self.baseline_wander - 1.0) * fraction,
        )


def scenario_grid(
    levels: Sequence[float] = (0.0, 0.5, 1.0),
    max_sensitivity_drift: float = 0.35,
    max_noise_scale: float = 3.0,
    noise_family: str = "gaussian",
    max_peak_shift: float = 0.06,
    max_baseline_wander: float = 4.0,
) -> List[DriftScenario]:
    """A monotone ladder of scenarios from nominal to full shift.

    Level 0 is always the identity scenario (the sim-equals-real column
    of the matrix); level 1 applies every maximum at once.
    """
    top = DriftScenario(
        name="full",
        sensitivity_drift=max_sensitivity_drift,
        noise_scale=max_noise_scale,
        noise_family=noise_family,
        peak_shift=max_peak_shift,
        baseline_wander=max_baseline_wander,
    )
    return [
        top.scaled(float(level), name=f"drift-{float(level):.2f}")
        for level in levels
    ]


def shift_characteristics(characteristics, scenario: DriftScenario):
    """Apply a scenario to MS :class:`InstrumentCharacteristics`.

    Sensitivity drift both attenuates the gain and shrinks the
    attenuation tau (heavier high-m/z loss), so the per-channel response
    *shape* changes — max-normalization alone cannot undo it.
    """
    shot_scale = (
        scenario.noise_scale if scenario.noise_family == "heavy" else 1.0
    )
    return dataclasses.replace(
        characteristics,
        gain=characteristics.gain * (1.0 - scenario.sensitivity_drift),
        attenuation_tau=characteristics.attenuation_tau
        * (1.0 - 0.5 * scenario.sensitivity_drift),
        noise_sigma=characteristics.noise_sigma * scenario.noise_scale,
        shot_noise_factor=characteristics.shot_noise_factor * shot_scale,
        mz_offset=characteristics.mz_offset + scenario.peak_shift,
        baseline_amplitude=characteristics.baseline_amplitude
        * scenario.baseline_wander,
    )


def shifted_ms_simulator(simulator, scenario: DriftScenario):
    """A new MS simulator standing in for the drifted real instrument."""
    from repro.ms.simulator import MassSpectrometerSimulator

    return MassSpectrometerSimulator(
        shift_characteristics(simulator.characteristics, scenario),
        simulator.axis,
        simulator.library,
    )


def shifted_nmr_simulator(simulator, scenario: DriftScenario):
    """Apply the same shift axes to an NMR spectrum simulator.

    Sensitivity loss on an NMR spectrometer shows up as line broadening
    (shimming decay), so ``sensitivity_drift`` inflates
    ``broadening_sigma``; ``peak_shift`` maps onto the chemical-shift
    jitter sigma, the rest map one-to-one.
    """
    from repro.nmr.simulator import NMRSpectrumSimulator

    shot_scale = (
        scenario.noise_scale if scenario.noise_family == "heavy" else 1.0
    )
    return NMRSpectrumSimulator(
        simulator.models,
        dict(simulator.ranges),
        shift_sigma=simulator.shift_sigma + scenario.peak_shift,
        broadening_sigma=simulator.broadening_sigma
        * (1.0 + 2.0 * scenario.sensitivity_drift),
        noise_sigma=simulator.noise_sigma * scenario.noise_scale,
        baseline_amplitude=simulator.baseline_amplitude
        * scenario.baseline_wander,
        phase_sigma=simulator.phase_sigma,
        peak_jitter=simulator.peak_jitter * shot_scale,
    )
