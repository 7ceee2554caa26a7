"""NMR line shapes.

IHM describes every pure component "with a series of Lorentz-Gauss
functions"; the pseudo-Voigt profile here is that Lorentz-Gauss mix.  All
profiles are *unit-area* in their pure forms so a peak's area parameter
maps directly to a number of nuclei (NMR's direct proportionality between
signal area and spin count is what makes it calibration-free).

Every line is computed by one batched kernel, :func:`pseudo_voigt_table`,
which renders a ``rows x points`` table of lines (one row per spectrum or
per peak) and can return its closed-form derivatives with respect to
each row's center and width.  The simulator, the hard models and the IHM
fit all call it; the single-line functions below are one-row views of it.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = [
    "lorentzian",
    "gaussian",
    "pseudo_voigt",
    "dispersive_lorentzian",
    "pseudo_voigt_with_phase",
    "pseudo_voigt_table",
    "fwhm_to_sigma",
]

_SIGMA_PER_FWHM = 1.0 / 2.3548200450309493  # Gaussian sigma = FWHM * this


def fwhm_to_sigma(fwhm: float) -> float:
    """Gaussian sigma for a given full width at half maximum."""
    return fwhm * _SIGMA_PER_FWHM


def _geometry(grid: np.ndarray, centers: np.ndarray, fwhms: np.ndarray):
    """Offsets from each row's center, half widths and Lorentzian
    denominators ``delta**2 + hwhm**2``, broadcast to ``rows x points``."""
    delta = grid[None, :] - centers[:, None]
    hwhm = 0.5 * fwhms[:, None]
    return delta, hwhm, delta * delta + hwhm * hwhm


def pseudo_voigt_table(
    grid: np.ndarray,
    centers: np.ndarray,
    fwhms: np.ndarray,
    eta: Union[float, np.ndarray],
    phases: Optional[np.ndarray] = None,
    derivatives: bool = False,
):
    """``rows x points`` table of unit-area pseudo-Voigt lines on ``grid``.

    Row ``i`` is the line at ``centers[i]`` with full width ``fwhms[i]``,
    Lorentzian fraction ``eta`` (one value, or one per row) and an
    uncorrected zero-order phase error ``phases[i]`` in radians.  With
    ``derivatives=True`` the result is ``(table, d_center, d_fwhm)``: the
    partial derivatives of every entry with respect to its row's center
    and its row's width, in closed form.

    Inputs are trusted (positive widths, ``eta`` in [0, 1]); the
    single-line functions below validate theirs before calling this.
    """
    delta, hwhm, denom = _geometry(grid, centers, fwhms)
    eta = np.asarray(eta, dtype=np.float64)
    if eta.ndim:
        eta = eta[:, None]
    lorentzian_only = bool(np.all(eta == 1.0))
    gaussian_only = bool(np.all(eta == 0.0))
    lorentz = (hwhm / np.pi) / denom
    if lorentzian_only:
        absorptive = lorentz
    else:
        sigma = fwhm_to_sigma(1.0) * fwhms[:, None]
        z = delta / sigma
        gauss = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))
        absorptive = gauss if gaussian_only else eta * lorentz + (1.0 - eta) * gauss
    phased = phases is not None and bool(np.any(phases))
    if phased:
        dispersive = eta * (delta / np.pi) / denom
        cos = np.cos(phases)[:, None]
        sin = np.sin(phases)[:, None]
        table = cos * absorptive + sin * dispersive
    else:
        table = absorptive
    if not derivatives:
        return table

    # d/dc of 1/denom is 2*delta/denom**2; d/dhwhm is -2*hwhm/denom**2.
    inv2 = 1.0 / (denom * denom)
    d_center = lorentz * (2.0 * delta / denom)
    d_fwhm = (delta * delta - hwhm * hwhm) * inv2 / (2.0 * np.pi)
    if not lorentzian_only:
        g_center = gauss * z / sigma
        g_fwhm = gauss * (z * z - 1.0) / fwhms[:, None]
        if gaussian_only:
            d_center, d_fwhm = g_center, g_fwhm
        else:
            d_center = eta * d_center + (1.0 - eta) * g_center
            d_fwhm = eta * d_fwhm + (1.0 - eta) * g_fwhm
    if phased:
        disp_center = (delta * delta - hwhm * hwhm) * inv2 / np.pi
        disp_fwhm = -(delta * hwhm) * inv2 / np.pi
        d_center = cos * d_center + sin * (eta * disp_center)
        d_fwhm = cos * d_fwhm + sin * (eta * disp_fwhm)
    return table, d_center, d_fwhm


def _check_fwhm(fwhm: float) -> None:
    if fwhm <= 0:
        raise ValueError(f"fwhm must be positive, got {fwhm}")


def _one_line(x, center: float, fwhm: float, eta: float, phase: float = 0.0) -> np.ndarray:
    """One line on an arbitrary-shaped ``x`` through the batched kernel."""
    x = np.asarray(x)
    row = pseudo_voigt_table(
        x.reshape(-1), np.array([center], dtype=np.float64),
        np.array([fwhm], dtype=np.float64), eta, np.array([phase]),
    )[0]
    return row.reshape(x.shape)


def lorentzian(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-area Lorentzian profile.

    L(x) = (1/pi) * (hwhm / ((x-center)^2 + hwhm^2))
    """
    _check_fwhm(fwhm)
    return _one_line(x, center, fwhm, 1.0)


def gaussian(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-area Gaussian profile with the same FWHM convention."""
    _check_fwhm(fwhm)
    return _one_line(x, center, fwhm, 0.0)


def pseudo_voigt(
    x: np.ndarray, center: float, fwhm: float, eta: float = 0.5
) -> np.ndarray:
    """Unit-area pseudo-Voigt: eta*Lorentzian + (1-eta)*Gaussian.

    ``eta`` is the Lorentzian fraction; 0 gives a pure Gaussian, 1 a pure
    Lorentzian.  Real NMR lines in well-shimmed magnets are mostly
    Lorentzian; field inhomogeneity adds the Gaussian component.
    """
    return pseudo_voigt_with_phase(x, center, fwhm, eta)


def dispersive_lorentzian(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """The dispersive (imaginary) partner of the Lorentzian line.

    D(x) = (1/pi) * (x-center) / ((x-center)^2 + hwhm^2)

    A spectrum with an uncorrected phase error phi contains
    ``cos(phi)*absorptive + sin(phi)*dispersive`` — an asymmetric line no
    purely absorptive hard model can fit, which is one reason real IHM
    analyses underperform idealized ones.
    """
    _check_fwhm(fwhm)
    x = np.asarray(x)
    delta, _, denom = _geometry(
        x.reshape(-1), np.array([center], dtype=np.float64),
        np.array([fwhm], dtype=np.float64),
    )
    return ((delta / np.pi) / denom)[0].reshape(x.shape)


def pseudo_voigt_with_phase(
    x: np.ndarray, center: float, fwhm: float, eta: float = 0.5, phase: float = 0.0
) -> np.ndarray:
    """Pseudo-Voigt with an uncorrected zero-order phase error (radians).

    Only the Lorentzian fraction contributes dispersion (the Gaussian
    dispersive partner, a Dawson function, is small and neglected here).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    _check_fwhm(fwhm)
    return _one_line(x, center, fwhm, eta, phase)
