"""Unit tests for hard models and the built-in reaction model set."""

import numpy as np
import pytest

from repro.nmr.hard_model import (
    PAPER_SPECTRUM_POINTS,
    ChemicalShiftAxis,
    HardModelSet,
    Peak,
    PureComponentModel,
    mndpa_reaction_models,
)


class TestAxis:
    def test_paper_point_count(self):
        assert ChemicalShiftAxis().points == PAPER_SPECTRUM_POINTS == 1700

    def test_values_span_range(self):
        axis = ChemicalShiftAxis(0.0, 10.0, 11)
        np.testing.assert_allclose(axis.values(), np.arange(11.0))

    def test_index_of(self):
        axis = ChemicalShiftAxis(0.0, 10.0, 101)
        assert axis.index_of(5.0) == 50
        assert axis.index_of(-99.0) == 0
        assert axis.index_of(99.0) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ChemicalShiftAxis(points=1)
        with pytest.raises(ValueError):
            ChemicalShiftAxis(5.0, 1.0)


class TestPeak:
    def test_validation(self):
        with pytest.raises(ValueError):
            Peak(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            Peak(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            Peak(1.0, 1.0, 0.1, eta=2.0)


class TestPureComponentModel:
    def _model(self):
        return PureComponentModel(
            "X", (Peak(2.0, 3.0, 0.05), Peak(7.0, 1.0, 0.05))
        )

    def test_needs_peaks(self):
        with pytest.raises(ValueError):
            PureComponentModel("X", ())

    def test_total_area(self):
        assert self._model().total_area == 4.0

    def test_evaluate_area_proportional_to_concentration(self):
        axis = ChemicalShiftAxis(0.0, 10.0, 2000)
        model = self._model()
        area1 = model.evaluate(axis, concentration=1.0).sum() * axis.step
        area2 = model.evaluate(axis, concentration=2.0).sum() * axis.step
        assert area2 == pytest.approx(2 * area1, rel=1e-6)
        assert area1 == pytest.approx(model.total_area, rel=0.05)

    def test_shift_moves_peaks(self):
        axis = ChemicalShiftAxis(0.0, 10.0, 2000)
        model = self._model()
        base = model.evaluate(axis)
        shifted = model.evaluate(axis, shift=0.5)
        grid = axis.values()
        assert grid[np.argmax(shifted)] == pytest.approx(
            grid[np.argmax(base)] + 0.5, abs=2 * axis.step
        )

    def test_broadening_lowers_peak_but_keeps_area(self):
        axis = ChemicalShiftAxis(0.0, 10.0, 5000)
        model = self._model()
        narrow = model.evaluate(axis)
        broad = model.evaluate(axis, broadening=2.0)
        assert broad.max() < narrow.max()
        assert broad.sum() == pytest.approx(narrow.sum(), rel=0.02)

    def test_peak_shifts_must_match_count(self):
        axis = ChemicalShiftAxis()
        with pytest.raises(ValueError, match="peak_shifts"):
            self._model().evaluate(axis, peak_shifts=[0.01])

    def test_invalid_broadening(self):
        with pytest.raises(ValueError):
            self._model().evaluate(ChemicalShiftAxis(), broadening=0.0)


class TestHardModelSet:
    def test_duplicate_names_rejected(self):
        m = PureComponentModel("X", (Peak(1.0, 1.0, 0.05),))
        with pytest.raises(ValueError, match="duplicate"):
            HardModelSet([m, m])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HardModelSet([])

    def test_getitem(self):
        models = mndpa_reaction_models()
        assert models["MNDPA"].name == "MNDPA"
        with pytest.raises(KeyError):
            models["caffeine"]

    def test_pure_spectra_shape(self):
        models = mndpa_reaction_models()
        matrix = models.pure_spectra()
        assert matrix.shape == (4, 1700)

    def test_mixture_is_linear_combination(self):
        models = mndpa_reaction_models()
        conc = {"p-toluidine": 0.3, "MNDPA": 0.1}
        mix = models.mixture_spectrum(conc)
        pure = models.pure_spectra()
        expected = 0.3 * pure[0] + 0.1 * pure[3]
        np.testing.assert_allclose(mix, expected, atol=1e-12)

    def test_mixture_negative_concentration_rejected(self):
        models = mndpa_reaction_models()
        with pytest.raises(ValueError, match="negative"):
            models.mixture_spectrum({"MNDPA": -1.0})

    def test_concentration_vector_order_and_default(self):
        models = mndpa_reaction_models()
        vec = models.concentration_vector({"MNDPA": 0.5})
        np.testing.assert_array_equal(vec, [0.0, 0.0, 0.0, 0.5])


class TestReactionModels:
    def test_four_components(self):
        models = mndpa_reaction_models()
        assert models.names == ["p-toluidine", "Li-toluidide", "o-FNB", "MNDPA"]

    def test_aromatic_region_populated(self):
        """Every aromatic compound contributes between 6 and 8.5 ppm."""
        models = mndpa_reaction_models()
        axis = models.axis
        grid = axis.values()
        aromatic = (grid > 6.0) & (grid < 8.5)
        for spectrum in models.pure_spectra():
            assert spectrum[aromatic].max() > 0.5

    def test_methyl_region_overlap(self):
        """The CH3 lines of toluidine species crowd around 2.0-2.4 ppm,
        making single-peak integration ambiguous (why ML/IHM is needed)."""
        models = mndpa_reaction_models()
        methyl_centers = []
        for name in ("p-toluidine", "Li-toluidide", "MNDPA"):
            centers = [p.center for p in models[name].peaks if 1.8 < p.center < 2.6]
            assert centers, f"{name} lacks a methyl line"
            methyl_centers.extend(centers)
        assert max(methyl_centers) - min(methyl_centers) < 0.4

    def test_hmds_peak_dominates_toluidide(self):
        model = mndpa_reaction_models()["Li-toluidide"]
        biggest = max(model.peaks, key=lambda p: p.area)
        assert biggest.center < 0.5  # trimethylsilyl region
