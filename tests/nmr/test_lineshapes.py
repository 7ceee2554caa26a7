"""Unit tests for NMR line shapes."""

import hashlib

import numpy as np
import pytest

from repro.nmr.lineshapes import (
    _EXP_UNDERFLOW,
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
        # A 90-degree phase error on a pure Lorentzian leaves only the
        # dispersive partner (cos(pi/2) ~ 6e-17 scales the absorptive line).
        grid = np.linspace(-5, 5, 1001)
        y = pseudo_voigt_with_phase(grid, 0.0, 1.0, 1.0, np.pi / 2)
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


def _kernel_digest(eta_case: str, phase_case: str) -> str:
    """sha256 over table, d_center and d_fwhm for 1, 18 and 32 rows."""
    grid = np.linspace(-2.0, 2.0, 801)
    digest = hashlib.sha256()
    for rows in (1, 18, 32):
        # Row kinds by index mod 4: a 0.06 ppm line whose Gaussian
        # underflows on part of the grid, a 2 ppm line that underflows
        # nowhere, a 0.2 ppm line, and a line 40 ppm off the grid whose
        # Gaussian underflows everywhere.
        fwhms = np.resize([0.06, 2.0, 0.2, 0.06], rows)
        centers = np.random.default_rng(rows).uniform(-1.5, 1.5, size=rows)
        centers[3::4] += 40.0
        eta = {
            "0": 0.0, "0.5": 0.5, "1": 1.0,
            "per_row": np.resize([0.0, 0.5, 1.0, 0.8], rows),
        }[eta_case]
        phases = {
            "none": None, "zero": np.zeros(rows),
            "nonzero": np.linspace(-0.3, 0.3, rows),
        }[phase_case]
        arrays = [pseudo_voigt_table(grid, centers, fwhms, eta, phases)]
        arrays += pseudo_voigt_table(grid, centers, fwhms, eta, phases, derivatives=True)
        for array in arrays:
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestKernelPins:
    """The kernel's bytes, captured before it computed in place and
    skipped ``exp`` past the Gaussian underflow (numpy 2.4, x86-64)."""

    PINNED = {
        ("0", "none"): "a16b7f8973d5195ed3ceedf6bcd36bd8c83233103cfc0fe4508fd95842f020e8",
        ("0", "zero"): "a16b7f8973d5195ed3ceedf6bcd36bd8c83233103cfc0fe4508fd95842f020e8",
        ("0", "nonzero"): "2715019bb646bf646b0e8a2275fe95b1fb7635eefc9e4241aeec1ef3a77fd335",
        ("0.5", "none"): "c77d50c217bde9852e4cdbd14e9ab77533a7c673b0f57e352526bd73a82244d5",
        ("0.5", "zero"): "c77d50c217bde9852e4cdbd14e9ab77533a7c673b0f57e352526bd73a82244d5",
        ("0.5", "nonzero"): "2c8a3b5b7b4c930413aa740ca7f23b33557c52d1875fb9f2a8c506bd9ae46d5e",
        ("1", "none"): "0be890cc8366af88f9749aeeee9f1b9142c236b5bdfc973fbfdc51dadea0a3a5",
        ("1", "zero"): "0be890cc8366af88f9749aeeee9f1b9142c236b5bdfc973fbfdc51dadea0a3a5",
        ("1", "nonzero"): "aab96076c08fb24f7d9a9a87f488c50468bf5aea5170287af94eabbd2a42bb09",
        ("per_row", "none"): "0793f035e4d06e1e3ea1a8115921a9671b3e4d0be70c8792c771c367e02595de",
        ("per_row", "zero"): "0793f035e4d06e1e3ea1a8115921a9671b3e4d0be70c8792c771c367e02595de",
        ("per_row", "nonzero"): "ef1d6fa327f80c3ea32209b1f1b55c97b155f407772193ea342ac9e071b0ef0a",
    }

    @pytest.mark.parametrize("eta_case,phase_case", sorted(PINNED))
    def test_table_and_derivative_bytes(self, eta_case, phase_case):
        assert _kernel_digest(eta_case, phase_case) == self.PINNED[eta_case, phase_case]

    def test_exp_is_exactly_zero_past_the_cutoff(self):
        """The kernel writes 0.0 without calling ``exp`` at or below
        ``_EXP_UNDERFLOW``; that is exact only while numpy's ``exp``
        underflows to 0.0 there.  Checked on a SIMD-length array and on
        scalars, since numpy dispatches the two differently."""
        below = np.concatenate([
            np.linspace(_EXP_UNDERFLOW - 5.0, _EXP_UNDERFLOW, 61),
            [np.nextafter(_EXP_UNDERFLOW, -np.inf), -1e4, -np.inf],
        ])
        assert np.all(np.exp(below) == 0.0)
        assert np.exp(_EXP_UNDERFLOW) == 0.0
        above = np.linspace(-745.13, -700.0, 61)
        assert np.all(np.exp(above) > 0.0)
        assert np.exp(-745.13) > 0.0


class TestValidation:
    @pytest.mark.parametrize("shape", [lorentzian, gaussian])
    def test_nonpositive_fwhm_rejected(self, shape):
        with pytest.raises(ValueError):
            shape(X, 0.0, 0.0)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pseudo_voigt(X, 0.0, 1.0, eta=1.5)
