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
    "pseudo_voigt_with_phase",
    "pseudo_voigt_table",
    "fwhm_to_sigma",
]

_SIGMA_PER_FWHM = 1.0 / 2.3548200450309493  # Gaussian sigma = FWHM * this

# numpy's exp returns exactly 0.0 below about -745.13 (half the smallest
# subnormal), so the kernel writes 0.0 at or below this without calling it.
_EXP_UNDERFLOW = -746.0

# exp(-0.5 z**2) is exactly 0.0 past |z| = sqrt(-2 * _EXP_UNDERFLOW), about
# 38.63 sigma; the kernel renders each Gaussian only within this many.
_GAUSS_REACH = 40.0


def fwhm_to_sigma(fwhm: float) -> float:
    """Gaussian sigma for a given full width at half maximum."""
    return fwhm * _SIGMA_PER_FWHM


def _combine(a: np.ndarray, wa, b: np.ndarray, wb) -> np.ndarray:
    """``wa * a + wb * b``, written into ``a``; ``b`` is overwritten."""
    a *= wa
    b *= wb
    a += b
    return a


def _gauss_band(grid: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> slice:
    """The columns of ``grid`` outside which every row's Gaussian is 0.0.

    Every column within ``_GAUSS_REACH`` of the widest sigma from some
    center lies in ``[low, high]``, and the band runs from the first to
    the last column in it, so it holds for a grid in any order.  When both
    end columns are in it (IHM's peaks cover the whole axis), the band is
    the whole axis without a pass over the grid.  The bounds come from
    Python floats: on IHM's 18 rows, numpy reductions cost 1 % of a call.
    """
    if not (grid.size and centers.size):
        return slice(None)
    reach = _GAUSS_REACH * max(sigma.ravel().tolist())
    located = centers.tolist()
    low, high = min(located) - reach, max(located) + reach
    first, last = float(grid[0]), float(grid[-1])
    if not (first < low or first > high or last < low or last > high):
        return slice(None)
    outside = grid < low
    outside |= grid > high  # a NaN column counts as inside
    start = int(outside.argmin())
    if outside[start]:
        return slice(0, 0)
    return slice(start, grid.size - int(outside[::-1].argmin()))


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

    Every entry is computed by the expression in the comment beside it,
    in that floating-point order, into arrays this call allocates (IHM
    fits run on thread executors, so nothing is shared between calls).
    ``exp`` runs only where the Gaussian exponent is above
    ``_EXP_UNDERFLOW``; everywhere else it would return exactly 0.0.
    Without derivatives, the Gaussian is computed only on the band of
    columns within ``_GAUSS_REACH`` sigma of some row (:func:`_gauss_band`):
    past it the Gaussian is exactly 0.0 and adds nothing to the table.

    Inputs are trusted (positive widths, ``eta`` in [0, 1]); the
    single-line functions below validate theirs before calling this.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.ndim:
        eta = eta[:, None]
    # ndarray methods: np.all/np.any cost twice as much on these tiny arrays.
    lorentzian_only = bool((eta == 1.0).all())
    gaussian_only = bool((eta == 0.0).all())
    phased = phases is not None and bool(np.asarray(phases).any())
    if phased:
        cos = np.cos(phases)[:, None]
        sin = np.sin(phases)[:, None]
    fwhms = fwhms[:, None]
    hwhm = 0.5 * fwhms
    hwhm2 = hwhm * hwhm

    delta = grid[None, :] - centers[:, None]
    denom = delta * delta
    denom += hwhm2  # delta**2 + hwhm**2
    lorentz = (hwhm / np.pi) / denom
    if not lorentzian_only:
        sigma = fwhm_to_sigma(1.0) * fwhms
        band = slice(None) if derivatives else _gauss_band(grid, centers, sigma)
        z = delta[:, band] / sigma
        gauss = -0.5 * z
        gauss *= z  # -0.5 * z * z
        underflow = gauss <= _EXP_UNDERFLOW
        np.exp(gauss, out=gauss, where=~underflow)
        np.copyto(gauss, 0.0, where=underflow)
        gauss /= sigma * np.sqrt(2.0 * np.pi)  # exp(...) / (sigma * sqrt(2 pi))

    # The derivatives read lorentz, gauss and delta, which the table
    # below then overwrites.
    if derivatives:
        # d/dc of 1/denom is 2*delta/denom**2; d/dhwhm is -2*hwhm/denom**2.
        inv2 = denom * denom
        np.divide(1.0, inv2, out=inv2)  # 1 / denom**2
        d_center = 2.0 * delta
        d_center /= denom
        d_center *= lorentz  # lorentz * (2 * delta / denom)
        width = delta * delta
        width -= hwhm2
        width *= inv2  # (delta**2 - hwhm**2) * inv2
        d_fwhm = width / (2.0 * np.pi)
        if not lorentzian_only:
            g_center = gauss * z
            g_center /= sigma  # gauss * z / sigma
            g_fwhm = z * z
            g_fwhm -= 1.0
            g_fwhm *= gauss
            g_fwhm /= fwhms  # gauss * (z * z - 1) / fwhm
            if gaussian_only:
                d_center, d_fwhm = g_center, g_fwhm
            else:
                d_center = _combine(d_center, eta, g_center, 1.0 - eta)
                d_fwhm = _combine(d_fwhm, eta, g_fwhm, 1.0 - eta)
        if phased:
            width /= np.pi  # dispersive d/dc: (delta**2 - hwhm**2) * inv2 / pi
            width *= eta
            d_center = _combine(d_center, cos, width, sin)
            disp_fwhm = delta * hwhm
            np.negative(disp_fwhm, out=disp_fwhm)
            disp_fwhm *= inv2
            disp_fwhm /= np.pi  # -(delta * hwhm) * inv2 / pi
            disp_fwhm *= eta
            d_fwhm = _combine(d_fwhm, cos, disp_fwhm, sin)

    if lorentzian_only:
        table = lorentz
    elif gaussian_only:
        table = lorentz
        table.fill(0.0)
        table[:, band] = gauss
    else:
        table = lorentz
        table *= eta
        gauss *= 1.0 - eta
        on_band = table[:, band]
        on_band += gauss  # eta * lorentz + (1 - eta) * gauss
    if phased:
        dispersive = delta
        dispersive /= np.pi
        dispersive *= eta
        dispersive /= denom  # eta * (delta / pi) / denom
        table = _combine(table, cos, dispersive, sin)
    if not derivatives:
        return table
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
