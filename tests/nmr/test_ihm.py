"""Unit tests for the IHM fitting baseline."""

import numpy as np
import pytest
from scipy.optimize import least_squares

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.ihm import IHMAnalysis

MODELS = mndpa_reaction_models()
CONC = {"p-toluidine": 0.25, "Li-toluidide": 0.15, "o-FNB": 0.35, "MNDPA": 0.08}


class TestConstruction:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            IHMAnalysis(MODELS, max_shift=-0.1)
        with pytest.raises(ValueError):
            IHMAnalysis(MODELS, broadening_bounds=(1.2, 2.0))
        with pytest.raises(ValueError):
            IHMAnalysis(MODELS, broadening_bounds=(0.0, 2.0))


class TestFitting:
    def test_recovers_noise_free_mixture_exactly(self):
        ihm = IHMAnalysis(MODELS)
        spectrum = MODELS.mixture_spectrum(CONC)
        result = ihm.analyze(spectrum)
        for name, expected in CONC.items():
            assert result.concentrations[name] == pytest.approx(expected, abs=1e-4)

    def test_recovers_shifted_mixture(self):
        ihm = IHMAnalysis(MODELS)
        shifts = {"p-toluidine": 0.02, "o-FNB": -0.015}
        spectrum = MODELS.mixture_spectrum(CONC, shifts=shifts)
        result = ihm.analyze(spectrum)
        for name, expected in CONC.items():
            assert result.concentrations[name] == pytest.approx(expected, abs=5e-3)
        assert result.shifts["p-toluidine"] == pytest.approx(0.02, abs=5e-3)

    def test_recovers_broadened_mixture(self):
        ihm = IHMAnalysis(MODELS)
        spectrum = MODELS.mixture_spectrum(
            CONC, broadenings={"MNDPA": 1.3, "o-FNB": 0.85}
        )
        result = ihm.analyze(spectrum)
        for name, expected in CONC.items():
            assert result.concentrations[name] == pytest.approx(expected, rel=0.05, abs=2e-3)
        assert result.broadenings["MNDPA"] == pytest.approx(1.3, abs=0.1)

    def test_handles_realistic_benchtop_spectrum(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS, seed=3)
        spectrum = spectrometer.acquire(CONC)
        result = IHMAnalysis(MODELS).analyze(spectrum)
        for name, expected in CONC.items():
            assert result.concentrations[name] == pytest.approx(expected, abs=0.03)

    def test_absent_component_fitted_near_zero(self):
        ihm = IHMAnalysis(MODELS)
        conc = dict(CONC, MNDPA=0.0)
        spectrum = MODELS.mixture_spectrum(conc)
        result = ihm.analyze(spectrum)
        assert result.concentrations["MNDPA"] < 5e-3

    def test_fit_without_freedom_is_biased_on_shifted_data(self):
        """Disabling shift/broadening freedom degrades shifted-spectrum fits
        — the motivation for IHM over plain least squares."""
        rigid = IHMAnalysis(MODELS, fit_shifts=False, fit_broadening=False)
        flexible = IHMAnalysis(MODELS)
        spectrum = MODELS.mixture_spectrum(
            CONC, shifts={name: 0.03 for name in MODELS.names}
        )
        names = MODELS.names
        truth = np.array([CONC[n] for n in names])
        rigid_error = np.abs(
            rigid.analyze(spectrum).concentration_vector(names) - truth
        ).sum()
        flexible_error = np.abs(
            flexible.analyze(spectrum).concentration_vector(names) - truth
        ).sum()
        assert flexible_error < rigid_error

    def test_result_bookkeeping(self):
        result = IHMAnalysis(MODELS).analyze(MODELS.mixture_spectrum(CONC))
        assert result.elapsed_seconds > 0
        assert result.n_function_evaluations >= 1
        assert 1 <= result.n_jacobian_evaluations <= result.n_function_evaluations
        assert result.residual_norm >= 0

    def test_wrong_length_spectrum_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            IHMAnalysis(MODELS).analyze(np.zeros(100))


FREEDOMS = [(True, True), (True, False), (False, True), (False, False)]


def _benchtop_spectra(n):
    """``n`` seeded benchtop spectra at seeded concentrations."""
    rng = np.random.default_rng(11)
    spectra = []
    for seed in range(n):
        conc = dict(zip(MODELS.names, rng.uniform(0.02, 0.5, size=len(MODELS))))
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS, seed=seed)
        spectra.append(spectrometer.acquire(conc).intensities)
    return spectra


class TestJacobian:
    @pytest.mark.parametrize("fit_shifts,fit_broadening", FREEDOMS)
    def test_matches_central_differences(self, fit_shifts, fit_broadening):
        ihm = IHMAnalysis(
            MODELS, fit_shifts=fit_shifts, fit_broadening=fit_broadening
        )
        data = _benchtop_spectra(1)[0]
        k = len(MODELS)
        rng = np.random.default_rng(int(fit_shifts) * 2 + int(fit_broadening))
        for _ in range(3):
            parts = [rng.uniform(0.05, 0.5, size=k)]
            if fit_shifts:
                parts.append(rng.uniform(-ihm.max_shift, ihm.max_shift, size=k))
            if fit_broadening:
                parts.append(rng.uniform(*ihm.broadening_bounds, size=k))
            x = np.concatenate(parts)
            analytic = ihm._jacobian(x, data)
            numeric = np.empty_like(analytic)
            for i in range(x.size):
                step = np.zeros_like(x)
                step[i] = 1e-6 * max(abs(x[i]), 1e-2)
                numeric[:, i] = (
                    ihm._residuals(x + step, data) - ihm._residuals(x - step, data)
                ) / (2.0 * step[i])
            error = np.abs(analytic - numeric).max(axis=0)
            assert np.all(error <= 1e-6 * np.abs(numeric).max(axis=0))

    def test_fit_agrees_with_finite_difference_fit(self):
        ihm = IHMAnalysis(MODELS)
        k = len(MODELS)
        lower = np.concatenate(
            [np.zeros(k), np.full(k, -ihm.max_shift),
             np.full(k, ihm.broadening_bounds[0])]
        )
        upper = np.concatenate(
            [np.full(k, ihm.max_concentration), np.full(k, ihm.max_shift),
             np.full(k, ihm.broadening_bounds[1])]
        )
        for data in _benchtop_spectra(20):
            x0 = np.concatenate(
                [ihm._linear_warm_start(data), np.zeros(k), np.ones(k)]
            )
            reference = least_squares(
                ihm._residuals, x0, jac="2-point", bounds=(lower, upper),
                args=(data,), method="trf", xtol=1e-10, ftol=1e-10,
                max_nfev=200,
            )
            fitted = ihm.analyze(data).concentration_vector(MODELS.names)
            np.testing.assert_allclose(fitted, reference.x[:k], rtol=0, atol=1e-5)


class TestBatch:
    def test_predict_shape_and_order(self):
        ihm = IHMAnalysis(MODELS)
        spectra = np.stack(
            [
                MODELS.mixture_spectrum({"MNDPA": 0.1}),
                MODELS.mixture_spectrum({"o-FNB": 0.2}),
            ]
        )
        pred = ihm.predict(spectra)
        assert pred.shape == (2, 4)
        assert pred[0, 3] == pytest.approx(0.1, abs=1e-3)  # MNDPA column
        assert pred[1, 2] == pytest.approx(0.2, abs=1e-3)  # o-FNB column

    def test_analyze_batch_returns_one_result_per_spectrum(self):
        ihm = IHMAnalysis(MODELS)
        spectra = np.stack([MODELS.mixture_spectrum(CONC)] * 3)
        results = ihm.analyze_batch(spectra)
        assert len(results) == 3
