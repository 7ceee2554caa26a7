"""Unit tests for integral-based NMR quantification."""

import numpy as np
import pytest

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.quantification import IntegralQuantification, IntegrationRegion

MODELS = mndpa_reaction_models()
CONC = {"p-toluidine": 0.25, "Li-toluidide": 0.15, "o-FNB": 0.35, "MNDPA": 0.08}


class TestRegionSelection:
    def test_auto_regions_cover_all_components(self):
        iq = IntegralQuantification(MODELS)
        assert {r.component for r in iq.regions} == set(MODELS.names)

    def test_auto_regions_are_pure(self):
        """No other component may have a peak centred inside a region."""
        iq = IntegralQuantification(MODELS)
        for region in iq.regions:
            for model in MODELS.models:
                if model.name == region.component:
                    continue
                for peak in model.peaks:
                    assert not (region.low_ppm <= peak.center <= region.high_ppm)

    def test_explicit_regions_validated(self):
        with pytest.raises(ValueError, match="unknown component"):
            IntegralQuantification(
                MODELS, regions=[IntegrationRegion("caffeine", 1.0, 2.0, 3.0)]
            )

    def test_region_validation(self):
        with pytest.raises(ValueError):
            IntegrationRegion("x", 2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            IntegrationRegion("x", 1.0, 2.0, 0.0)


class TestQuantification:
    def test_highfield_spectrum_quantified_accurately(self):
        iq = IntegralQuantification(MODELS)
        spectrometer = VirtualNMRSpectrometer.highfield(MODELS, seed=0)
        result = iq.analyze(spectrometer.acquire(CONC))
        for name, expected in CONC.items():
            assert result[name] == pytest.approx(expected, rel=0.12)

    def test_noise_free_mixture_quantified(self):
        iq = IntegralQuantification(MODELS)
        spectrum = MODELS.mixture_spectrum(CONC)
        result = iq.analyze(spectrum)
        for name, expected in CONC.items():
            assert result[name] == pytest.approx(expected, rel=0.12)

    def test_linearity(self):
        """Doubling a concentration doubles the integral-based estimate."""
        iq = IntegralQuantification(MODELS)
        low = iq.analyze(MODELS.mixture_spectrum({"MNDPA": 0.1}))
        high = iq.analyze(MODELS.mixture_spectrum({"MNDPA": 0.2}))
        assert high["MNDPA"] == pytest.approx(2 * low["MNDPA"], rel=0.02)

    def test_predict_matrix_order(self):
        iq = IntegralQuantification(MODELS)
        spectra = np.stack(
            [
                MODELS.mixture_spectrum({"o-FNB": 0.3}),
                MODELS.mixture_spectrum({"MNDPA": 0.1}),
            ]
        )
        pred = iq.predict(spectra)
        assert pred.shape == (2, 4)
        assert pred[0, 2] > 0.2  # o-FNB column
        assert pred[1, 3] > 0.05  # MNDPA column

    def test_benchtop_quantification_degrades_gracefully(self):
        """On the broad-lined benchtop instrument region integration is
        biased (tails leave the window) — the motivation for IHM/ANN."""
        iq = IntegralQuantification(MODELS)
        bench = VirtualNMRSpectrometer.benchtop(MODELS, seed=0)
        high = VirtualNMRSpectrometer.highfield(MODELS, seed=0)
        bench_err = 0.0
        high_err = 0.0
        for _ in range(5):
            bench_res = iq.analyze(bench.acquire(CONC))
            high_res = iq.analyze(high.acquire(CONC))
            bench_err += sum(abs(bench_res[n] - CONC[n]) for n in CONC)
            high_err += sum(abs(high_res[n] - CONC[n]) for n in CONC)
        assert high_err < bench_err
