"""Tool 2 — automatic generation of the instrument simulator from data.

Given labelled reference measurements from the real device (spectra of
known mixtures), this module estimates every parameter the Tool-3 simulator
needs: peak shape, m/z-dependent attenuation, baseline level, noise model,
mass-axis offset and the ignition-gas artifact.

The estimates converge with the number of reference measurement series —
this is exactly the knob the paper's Fig. 6 sweeps (simulators
parameterized with 10/25/50/75/100/150 series per mixture).

Systematic effects the estimator *cannot* see — inlet contamination and
later configuration drift — stay uncorrected, which is what produces the
paper's simulated-vs-measured accuracy gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ms.compounds import CompoundLibrary
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.spectrum import MassSpectrum, MzAxis

__all__ = [
    "CharacterizationResult",
    "characterize_instrument",
    "expected_task_lines",
]

# Lines need some clearance from every other expected line before their
# width/height can be measured in isolation.
_ISOLATION_MZ = 1.6
_WINDOW_MZ = 0.7
_MIN_RELATIVE_INTENSITY = 0.25
_MIN_CONCENTRATION = 0.03


@dataclass
class CharacterizationResult:
    """Fitted instrument model plus fit diagnostics."""

    characteristics: InstrumentCharacteristics
    n_measurements: int
    n_peaks_used: int
    sigma_fit_residual: float
    attenuation_fit_residual: float
    notes: List[str] = field(default_factory=list)


def expected_task_lines(
    task_compounds: Sequence[str], library: CompoundLibrary
) -> List[Tuple[str, float, float]]:
    """All (compound, m/z, relative intensity) lines of a measurement task."""
    lines = []
    for name in task_compounds:
        compound = library.get(name)
        for mz, intensity in compound.normalized_lines():
            lines.append((compound.name, float(mz), float(intensity)))
    return lines


def _isolated_strong_lines(
    task_compounds: Sequence[str], library: CompoundLibrary
) -> List[Tuple[str, float, float]]:
    """Strong lines with no *significant* other line within _ISOLATION_MZ.

    Only interferers above 5 % relative intensity count: a 1 % isotope
    satellite next to a base peak does not spoil a width or height
    measurement, and treating it as blocking would leave typical gas tasks
    with almost no usable lines.
    """
    all_lines = expected_task_lines(task_compounds, library)
    significant = np.array(
        [(mz, rel) for _, mz, rel in all_lines if rel >= 0.05]
    )
    isolated = []
    for name, mz, rel in all_lines:
        if rel < _MIN_RELATIVE_INTENSITY:
            continue
        distance = np.abs(significant[:, 0] - mz)
        # The line itself appears once in the significant set.
        neighbours = int(np.sum(distance < _ISOLATION_MZ)) - 1
        if neighbours == 0:
            isolated.append((name, mz, rel))
    return isolated


def _quiet_mask(spectrum: MassSpectrum, task_lines, margin: float) -> np.ndarray:
    grid = spectrum.mz
    mask = np.ones(grid.size, dtype=bool)
    for _, mz, _ in task_lines:
        mask &= np.abs(grid - mz) > margin
    return mask


def _quiet_masks(measurements, task_lines, margin: float) -> List[np.ndarray]:
    """``_quiet_mask`` of each measurement, built once per distinct axis."""
    masks: Dict[MzAxis, np.ndarray] = {}
    for spectrum, _ in measurements:
        if spectrum.axis not in masks:
            masks[spectrum.axis] = _quiet_mask(spectrum, task_lines, margin)
    return [masks[spectrum.axis] for spectrum, _ in measurements]


def _peak_statistics(
    spectrum: MassSpectrum, expected_mz: float
) -> Optional[Tuple[float, float, float]]:
    """(height, centroid, sigma) of the peak near ``expected_mz``.

    Returns ``None`` if the window falls off the axis or carries no signal.
    """
    grid = spectrum.mz
    mask = np.abs(grid - expected_mz) <= _WINDOW_MZ
    if np.sum(mask) < 5:
        return None
    window_mz = grid[mask]
    window = spectrum.intensities[mask].copy()
    # Local baseline: the mean of the window edges.
    edge = 0.5 * (window[:2].mean() + window[-2:].mean())
    window = np.clip(window - edge, 0.0, None)
    total = window.sum()
    if total <= 0:
        return None
    peak_idx = int(np.argmax(window))
    height = float(window[peak_idx])
    # Centroid over the peak core only (>= 20 % of max), which keeps
    # residual baseline out of the statistics.
    core = window >= 0.2 * height
    centroid = float(np.sum(window_mz[core] * window[core]) / window[core].sum())
    sigma = _log_parabola_sigma(window_mz, window, peak_idx)
    if sigma is None:
        sigma = _fwhm_sigma(window_mz, window, peak_idx, height)
    if sigma is None:
        return None
    return height, centroid, sigma


def _log_parabola_sigma(window_mz, window, peak_idx) -> Optional[float]:
    """Gaussian sigma from a log-parabola through the three top samples.

    Exact for a noise-free Gaussian and far more accurate than half-max
    interpolation when the peak spans only a few grid points (coarse m/z
    stepsizes undersample narrow peaks badly).
    """
    if peak_idx < 1 or peak_idx > window.size - 2:
        return None
    left, top, right = window[peak_idx - 1 : peak_idx + 2]
    if left <= 0 or top <= 0 or right <= 0:
        return None
    curvature = np.log(left) + np.log(right) - 2.0 * np.log(top)
    if curvature >= 0:
        return None  # flat or inverted: not a resolvable peak
    step = window_mz[1] - window_mz[0]
    return float(step / np.sqrt(-curvature))


def _fwhm_sigma(window_mz, window, peak_idx, height) -> Optional[float]:
    """Gaussian sigma from the full width at half maximum.

    FWHM is far less sensitive to baseline residue than second moments,
    which systematically overestimate the width.
    """
    half = 0.5 * height
    # Walk left from the peak to the half-max crossing.
    left = None
    for i in range(peak_idx, 0, -1):
        if window[i - 1] <= half <= window[i]:
            frac = (half - window[i - 1]) / max(window[i] - window[i - 1], 1e-15)
            left = window_mz[i - 1] + frac * (window_mz[i] - window_mz[i - 1])
            break
    right = None
    for i in range(peak_idx, window.size - 1):
        if window[i + 1] <= half <= window[i]:
            frac = (window[i] - half) / max(window[i] - window[i + 1], 1e-15)
            right = window_mz[i] + frac * (window_mz[i + 1] - window_mz[i])
            break
    if left is None or right is None or right <= left:
        return None
    return float((right - left) / 2.3548200450309493)


def characterize_instrument(
    measurements: Sequence[Tuple[MassSpectrum, Mapping[str, float]]],
    task_compounds: Sequence[str],
    library: CompoundLibrary,
) -> CharacterizationResult:
    """Estimate instrument characteristics from labelled measurements.

    Parameters
    ----------
    measurements:
        ``(spectrum, dosed_concentrations)`` pairs.  Concentrations are the
        *dosed* fractions (what the operator believes is in the sample);
        the estimator never sees the true chamber composition.
    task_compounds:
        The compounds of the measurement task.
    library:
        Line-spectra library.
    """
    if not measurements:
        raise ValueError("at least one reference measurement is required")
    notes: List[str] = []
    isolated = _isolated_strong_lines(task_compounds, library)
    if not isolated:
        raise ValueError(
            "no isolated strong lines in the task; cannot characterize"
        )
    task_lines = expected_task_lines(task_compounds, library)

    sigma_points: List[Tuple[float, float]] = []  # (mz, sigma)
    height_points: List[Tuple[float, float]] = []  # (mz, log-normalized height)
    offset_points: List[float] = []
    quiet_values: List[np.ndarray] = []
    peak_tops: Dict[Tuple[str, float], List[float]] = {}

    quiet_masks = _quiet_masks(measurements, task_lines, margin=1.2)
    for (spectrum, concentrations), quiet_mask in zip(measurements, quiet_masks):
        conc = {k.lower(): float(v) for k, v in concentrations.items()}
        for name, mz, rel in isolated:
            c = conc.get(name.lower(), 0.0)
            if c < _MIN_CONCENTRATION:
                continue
            stats = _peak_statistics(spectrum, mz)
            if stats is None:
                continue
            height, centroid, sigma = stats
            sigma_points.append((centroid, sigma))
            height_points.append((centroid, np.log(max(height, 1e-12) / (c * rel))))
            offset_points.append(centroid - mz)
            # Group raw heights by (line, dosed concentration): repeats of
            # the same mixture share a group, so within-group variance is a
            # clean repeat-to-repeat statistic.
            peak_tops.setdefault((name, mz, round(c, 4)), []).append(height)
        quiet = spectrum.intensities[quiet_mask]
        if quiet.size:
            quiet_values.append(quiet)

    if len(sigma_points) < 3:
        raise ValueError(
            f"only {len(sigma_points)} usable peaks found; need more "
            "reference measurements or higher concentrations"
        )

    sigma_arr = np.array(sigma_points)
    sigma_slope, sigma_base, sigma_residual = _linear_fit(
        sigma_arr[:, 0], sigma_arr[:, 1]
    )
    if sigma_base <= 0:
        notes.append("fitted peak_sigma_base <= 0; clamped")
        sigma_base = max(sigma_base, 1e-3)
    if sigma_slope < 0:
        notes.append("fitted peak_sigma_slope < 0; clamped to 0")
        sigma_slope = 0.0

    height_arr = np.array(height_points)
    slope, intercept, attenuation_residual = _linear_fit(
        height_arr[:, 0], height_arr[:, 1]
    )
    gain = float(np.exp(intercept))
    tau = float(-1.0 / slope) if slope < 0 else 1e6
    if slope >= 0:
        notes.append("attenuation slope non-negative; tau set to ~infinite")

    mz_offset = float(np.median(offset_points)) if offset_points else 0.0

    quiet_all = np.concatenate(quiet_values) if quiet_values else np.zeros(1)
    baseline_amplitude = float(2.0 * np.mean(quiet_all))
    noise_sigma = _robust_noise_sigma(quiet_all)

    shot = _estimate_shot_noise(peak_tops, noise_sigma, gain, tau)
    ignition_mz, ignition_intensity = _estimate_ignition_gas(
        measurements, task_lines, gain, tau, noise_sigma
    )
    if ignition_mz is None:
        notes.append("no ignition-gas artifact detected")
        ignition_mz, ignition_intensity = 0.5, 0.0

    characteristics = InstrumentCharacteristics(
        peak_sigma_base=sigma_base,
        peak_sigma_slope=sigma_slope,
        gain=gain,
        attenuation_tau=tau,
        baseline_amplitude=max(baseline_amplitude, 0.0),
        noise_sigma=max(noise_sigma, 1e-6),
        shot_noise_factor=shot,
        mz_offset=mz_offset,
        ignition_gas_mz=ignition_mz,
        ignition_gas_intensity=ignition_intensity,
    )
    return CharacterizationResult(
        characteristics=characteristics,
        n_measurements=len(measurements),
        n_peaks_used=len(sigma_points),
        sigma_fit_residual=sigma_residual,
        attenuation_fit_residual=attenuation_residual,
        notes=notes,
    )


def _robust_noise_sigma(quiet: np.ndarray) -> float:
    """Point-to-point noise of the detector, separated from the baseline.

    A plain standard deviation of the quiet region lumps the slow baseline
    roll into the noise estimate (roughly doubling it), which would make
    Tool-3 training data noisier than the device.  First differences cancel
    the slowly varying baseline; the median absolute deviation makes the
    estimate robust to the few large jumps across quiet-segment boundaries.
    """
    if quiet.size < 3:
        return float(np.std(quiet))
    diffs = np.diff(quiet)
    mad = float(np.median(np.abs(diffs - np.median(diffs))))
    return 1.482602218505602 * mad / np.sqrt(2.0)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares y = slope*x + intercept; returns (slope, intercept, rms)."""
    design = np.stack([x, np.ones_like(x)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coeffs - y) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), residual


def _estimate_shot_noise(
    peak_tops: Dict, noise_sigma: float, gain: float, tau: float
) -> float:
    """Shot factor from repeat-to-repeat height variance across lines.

    Repeats of the same mixture scatter for three reasons with different
    height dependence: additive detector noise (constant), shot noise
    (variance proportional to height) and proportional effects — dosing
    error, peak-position jitter, baseline phase (variance proportional to
    height squared).  Regressing variance against [1, H, H^2] over lines of
    different heights separates them; the shot factor is sqrt of the linear
    coefficient.  A single pooled ratio would lump the proportional terms
    into the shot factor and overestimate it severalfold.
    """
    heights = []
    variances = []
    for key, values in peak_tops.items():
        if len(values) < 5:
            continue
        physical = np.array(values)
        heights.append(float(np.mean(physical)))
        variances.append(float(np.var(physical, ddof=1)))
    if len(heights) < 3:
        return 0.005
    h = np.array(heights)
    v = np.array(variances)
    design = np.stack([np.ones_like(h), h, h * h], axis=1)
    from scipy.optimize import nnls as _nnls

    coefficients, _ = _nnls(design, v)
    return float(np.clip(np.sqrt(coefficients[1]), 0.0, 0.05))


def _estimate_ignition_gas(
    measurements, task_lines, gain: float, tau: float, noise_sigma: float
) -> Tuple[Optional[float], float]:
    """Find a consistent peak not explained by the sample's compounds."""
    positions: List[float] = []
    intensities: List[float] = []
    masks = _quiet_masks(measurements, task_lines, margin=1.0)
    for (spectrum, _), mask in zip(measurements, masks):
        grid = spectrum.mz
        if not np.any(mask):
            continue
        values = np.where(mask, spectrum.intensities, 0.0)
        idx = int(np.argmax(values))
        height = values[idx]
        if height < max(6.0 * noise_sigma, 1e-6):
            continue
        positions.append(float(grid[idx]))
        sensitivity = gain * np.exp(-grid[idx] / tau)
        intensities.append(float(height / max(sensitivity, 1e-12)))
    if len(positions) < max(2, len(measurements) // 4):
        return None, 0.0
    # The artifact must appear at a stable position to count.
    if np.std(positions) > 0.5:
        return None, 0.0
    return float(np.median(positions)), float(np.median(intensities))
