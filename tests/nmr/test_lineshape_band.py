"""The lineshape kernel computes each Gaussian only on its band, bit for bit.

``pseudo_voigt_table`` skips the Gaussian where it is exactly 0.0 for
every row.  Its bytes must equal the whole-axis arithmetic, written out
below as plain expressions in the kernel's floating-point order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.ihm import IHMAnalysis
from repro.nmr.lineshapes import (
    _EXP_UNDERFLOW,
    _GAUSS_REACH,
    _gauss_band,
    fwhm_to_sigma,
    gaussian,
    pseudo_voigt_table,
)

MODELS = mndpa_reaction_models()
AXIS = MODELS.axis.values()  # 1700 points, -0.5 to 10 ppm


def _reference(grid, centers, fwhms, eta, phases=None, derivatives=False):
    """The kernel on the whole axis, as expressions."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.ndim:
        eta = eta[:, None]
    lorentzian_only = bool(np.all(eta == 1.0))
    gaussian_only = bool(np.all(eta == 0.0))
    phased = phases is not None and bool(np.any(phases))
    if phased:
        cos = np.cos(phases)[:, None]
        sin = np.sin(phases)[:, None]
    fwhms = fwhms[:, None]
    hwhm = 0.5 * fwhms
    hwhm2 = hwhm * hwhm
    delta = grid[None, :] - centers[:, None]
    denom = delta * delta + hwhm2
    lorentz = (hwhm / np.pi) / denom
    if not lorentzian_only:
        sigma = fwhm_to_sigma(1.0) * fwhms
        z = delta / sigma
        exponent = -0.5 * z * z
        gauss = np.exp(exponent) / (sigma * np.sqrt(2.0 * np.pi))
    if derivatives:
        inv2 = 1.0 / (denom * denom)
        d_center = 2.0 * delta / denom * lorentz
        width = (delta * delta - hwhm2) * inv2
        d_fwhm = width / (2.0 * np.pi)
        if not lorentzian_only:
            g_center = gauss * z / sigma
            g_fwhm = (z * z - 1.0) * gauss / fwhms
            if gaussian_only:
                d_center, d_fwhm = g_center, g_fwhm
            else:
                d_center = eta * d_center + (1.0 - eta) * g_center
                d_fwhm = eta * d_fwhm + (1.0 - eta) * g_fwhm
        if phased:
            d_center = cos * d_center + sin * (width / np.pi * eta)
            disp_fwhm = -(delta * hwhm) * inv2 / np.pi * eta
            d_fwhm = cos * d_fwhm + sin * disp_fwhm
    if lorentzian_only:
        table = lorentz
    elif gaussian_only:
        table = gauss
    else:
        table = eta * lorentz + (1.0 - eta) * gauss
    if phased:
        table = cos * table + sin * (delta / np.pi * eta / denom)
    if not derivatives:
        return table
    return table, d_center, d_fwhm


def _assert_same_bytes(grid, centers, fwhms, eta, phases):
    for derivatives in (False, True):
        got = pseudo_voigt_table(grid, centers, fwhms, eta, phases, derivatives)
        want = _reference(grid, centers, fwhms, eta, phases, derivatives)
        if not derivatives:
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def _simulator_rows(rows=32, center=3.9, fwhm=0.1, seed=0):
    """One line across a block of spectra: small shifts and broadenings."""
    rng = np.random.default_rng(seed)
    centers = center + rng.normal(0.0, 0.008, rows) + rng.normal(0.0, 0.004, rows)
    fwhms = fwhm * np.clip(rng.normal(1.0, 0.05, rows), 0.3, None)
    return centers, fwhms


def _ihm_rows():
    """Every peak of every component: lines spread over the whole axis."""
    ihm = IHMAnalysis(MODELS)
    return ihm._centers, ihm._fwhms, ihm._etas


ETAS = {"0": 0.0, "1": 1.0, "0.5": 0.5, "per_row": "per_row"}
PHASES = ("none", "zero", "nonzero")


def _eta(case, rows):
    eta = ETAS[case]
    return np.resize([0.0, 0.5, 1.0, 0.7], rows) if eta == "per_row" else eta


def _phases(case, rows):
    return {"none": None, "zero": np.zeros(rows),
            "nonzero": np.linspace(-0.2, 0.25, rows)}[case]


GRIDS = {
    "axis": AXIS,
    "descending": AXIS[::-1].copy(),
    "shuffled": np.random.default_rng(7).permutation(AXIS),
}
ROWS = {
    "simulator": _simulator_rows(),
    "simulator_narrow": _simulator_rows(center=7.2, fwhm=0.042, seed=1),
    "simulator_at_edge": _simulator_rows(center=-0.45, fwhm=0.06, seed=2),
    "ihm": _ihm_rows()[:2],
    # Centers off the grid: beyond each end, and far past reach.
    "off_grid": (np.array([-1.0, 10.8, 12.0, -3.0, 500.0]),
                 np.array([0.06, 0.1, 0.2, 0.06, 0.1])),
    "far_off_grid": (np.array([500.0, 400.0]), np.array([0.1, 0.3])),
}


@pytest.mark.parametrize("phase_case", PHASES)
@pytest.mark.parametrize("eta_case", sorted(ETAS))
@pytest.mark.parametrize("grid_case", sorted(GRIDS))
@pytest.mark.parametrize("rows_case", sorted(ROWS))
def test_bytes_equal_whole_axis(rows_case, grid_case, eta_case, phase_case):
    centers, fwhms = ROWS[rows_case]
    rows = centers.size
    _assert_same_bytes(GRIDS[grid_case], centers, fwhms,
                       _eta(eta_case, rows), _phases(phase_case, rows))


def test_ihm_etas_per_row():
    centers, fwhms, etas = _ihm_rows()
    _assert_same_bytes(AXIS, centers, fwhms, etas, None)


def _band(centers, fwhms):
    return _gauss_band(AXIS, centers, (fwhm_to_sigma(1.0) * fwhms)[:, None])


def test_band_is_narrow_for_one_line_and_whole_for_ihm():
    """A simulator block's widest line (0.1 ppm) renders its Gaussian on a
    third of the axis; IHM's peaks reach both ends, so its tables take the
    whole axis; lines far past one end take none of it."""
    band = _band(*ROWS["simulator"])
    assert 0 < band.stop - band.start < 0.4 * AXIS.size
    assert _band(*_ihm_rows()[:2]) == slice(None)
    assert _band(*ROWS["far_off_grid"]) == slice(0, 0)
    # The band is a margin past the underflow: |z| > sqrt(1492) ~ 38.63.
    assert _GAUSS_REACH > np.sqrt(-2.0 * _EXP_UNDERFLOW)


def test_single_line_functions_and_empty_grid():
    for x in (np.linspace(-3.0, 3.0, 7), np.array([50.0, -50.0, 0.0]), np.empty(0)):
        want = _reference(x, np.array([0.0]), np.array([0.2]), 0.0)[0]
        assert gaussian(x, 0.0, 0.2).tobytes() == want.tobytes()


grids = st.sampled_from(sorted(GRIDS))
line_rows = st.integers(min_value=1, max_value=6)


@settings(deadline=None, max_examples=60)
@given(
    grid_case=grids,
    rows=line_rows,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.floats(min_value=0.0, max_value=12.0),
    eta_case=st.sampled_from(sorted(ETAS)),
    phase_case=st.sampled_from(PHASES),
)
def test_property_bytes_equal_whole_axis(grid_case, rows, seed, spread, eta_case, phase_case):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 12.0) + rng.uniform(0.0, spread, rows)
    fwhms = rng.uniform(0.01, 1.5, rows)
    _assert_same_bytes(GRIDS[grid_case], centers, fwhms,
                       _eta(eta_case, rows), _phases(phase_case, rows))
