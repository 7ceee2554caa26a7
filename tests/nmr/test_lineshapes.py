"""Unit tests for NMR line shapes."""

import numpy as np
import pytest

from repro.nmr.lineshapes import (
    dispersive_lorentzian,
    fwhm_to_sigma,
    gaussian,
    lorentzian,
    pseudo_voigt,
    pseudo_voigt_table,
    pseudo_voigt_with_phase,
)

X = np.linspace(-50.0, 50.0, 200_001)
DX = X[1] - X[0]


class TestUnitArea:
    @pytest.mark.parametrize("shape", [lorentzian, gaussian])
    def test_area_is_one(self, shape):
        area = np.sum(shape(X, 0.0, 0.5)) * DX
        assert area == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_pseudo_voigt_area(self, eta):
        area = np.sum(pseudo_voigt(X, 0.0, 0.5, eta)) * DX
        assert area == pytest.approx(1.0, abs=0.02)


class TestShape:
    def test_fwhm_of_lorentzian(self):
        fwhm = 2.0
        y = lorentzian(X, 0.0, fwhm)
        half = y.max() / 2.0
        width = X[y >= half][-1] - X[y >= half][0]
        assert width == pytest.approx(fwhm, abs=2 * DX)

    def test_fwhm_of_gaussian(self):
        fwhm = 2.0
        y = gaussian(X, 0.0, fwhm)
        half = y.max() / 2.0
        width = X[y >= half][-1] - X[y >= half][0]
        assert width == pytest.approx(fwhm, abs=2 * DX)

    def test_lorentzian_heavier_tails_than_gaussian(self):
        far = np.array([10.0])
        assert lorentzian(far, 0.0, 1.0)[0] > gaussian(far, 0.0, 1.0)[0]

    def test_peak_at_center(self):
        for shape in (lorentzian, gaussian):
            y = shape(X, 3.0, 1.0)
            assert X[np.argmax(y)] == pytest.approx(3.0, abs=DX)

    def test_symmetry(self):
        grid = np.linspace(-5, 5, 1001)
        for shape in (lorentzian, gaussian):
            y = shape(grid, 0.0, 1.0)
            np.testing.assert_allclose(y, y[::-1], atol=1e-12)

    def test_fwhm_to_sigma(self):
        assert fwhm_to_sigma(2.3548200450309493) == pytest.approx(1.0)


class TestDispersion:
    def test_dispersive_is_antisymmetric(self):
        grid = np.linspace(-5, 5, 1001)
        y = dispersive_lorentzian(grid, 0.0, 1.0)
        np.testing.assert_allclose(y, -y[::-1], atol=1e-12)

    def test_zero_phase_is_pure_absorptive(self):
        grid = np.linspace(-5, 5, 1001)
        np.testing.assert_array_equal(
            pseudo_voigt_with_phase(grid, 0.0, 1.0, 0.7, 0.0),
            pseudo_voigt(grid, 0.0, 1.0, 0.7),
        )

    def test_phase_error_breaks_symmetry(self):
        grid = np.linspace(-5, 5, 1001)
        y = pseudo_voigt_with_phase(grid, 0.0, 1.0, 0.7, 0.3)
        assert not np.allclose(y, y[::-1], atol=1e-6)

    def test_phase_error_reduces_peak_height(self):
        grid = np.linspace(-5, 5, 1001)
        y0 = pseudo_voigt_with_phase(grid, 0.0, 1.0, 1.0, 0.0)
        y1 = pseudo_voigt_with_phase(grid, 0.0, 1.0, 1.0, 0.5)
        assert y1.max() < y0.max()


class TestTable:
    GRID = np.linspace(-1.0, 1.0, 401)
    CENTERS = np.array([-0.2, 0.05, 0.3])
    FWHMS = np.array([0.1, 0.25, 0.06])

    @pytest.mark.parametrize("eta", [0.0, 0.7, 1.0, np.array([0.0, 0.5, 1.0])])
    def test_rows_match_single_lines(self, eta):
        phases = np.array([0.0, 0.2, -0.1])
        table = pseudo_voigt_table(self.GRID, self.CENTERS, self.FWHMS, eta, phases)
        etas = np.broadcast_to(eta, self.CENTERS.shape)
        for row, c, w, e, p in zip(table, self.CENTERS, self.FWHMS, etas, phases):
            np.testing.assert_array_equal(
                row, pseudo_voigt_with_phase(self.GRID, c, w, e, p)
            )

    @pytest.mark.parametrize("eta", [0.0, 0.7, 1.0, np.array([0.0, 0.5, 1.0])])
    @pytest.mark.parametrize("phases", [None, np.array([0.3, -0.2, 0.1])])
    def test_derivatives_match_central_differences(self, eta, phases):
        table, d_center, d_fwhm = pseudo_voigt_table(
            self.GRID, self.CENTERS, self.FWHMS, eta, phases, derivatives=True
        )
        np.testing.assert_array_equal(
            table, pseudo_voigt_table(self.GRID, self.CENTERS, self.FWHMS, eta, phases)
        )
        h = 1e-7
        for analytic, centers, fwhms in (
            (d_center, (self.CENTERS + h, self.CENTERS - h), (self.FWHMS,) * 2),
            (d_fwhm, (self.CENTERS,) * 2, (self.FWHMS + h, self.FWHMS - h)),
        ):
            plus = pseudo_voigt_table(self.GRID, centers[0], fwhms[0], eta, phases)
            minus = pseudo_voigt_table(self.GRID, centers[1], fwhms[1], eta, phases)
            numeric = (plus - minus) / (2.0 * h)
            scale = np.abs(numeric).max(axis=1, keepdims=True)
            assert np.all(np.abs(analytic - numeric) <= 1e-6 * scale)


class TestValidation:
    @pytest.mark.parametrize(
        "shape", [lorentzian, gaussian, dispersive_lorentzian]
    )
    def test_nonpositive_fwhm_rejected(self, shape):
        with pytest.raises(ValueError):
            shape(X, 0.0, 0.0)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pseudo_voigt(X, 0.0, 1.0, eta=1.5)
