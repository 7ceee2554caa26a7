"""Unit tests for reaction kinetics, DoE and the virtual flow reactor."""

import numpy as np
import pytest

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.reaction import (
    OBSERVED_COMPONENTS,
    DoEPlan,
    FlowReactorExperiment,
    ReactionConditions,
    ReactionKinetics,
)

MODELS = mndpa_reaction_models()


class TestConditions:
    def test_defaults_valid(self):
        ReactionConditions()

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactionConditions(feed_toluidine=-1.0)
        with pytest.raises(ValueError):
            ReactionConditions(residence_time_s=0.0)
        with pytest.raises(ValueError):
            ReactionConditions(temperature_c=500.0)


class TestKinetics:
    def test_arrhenius_rates_increase_with_temperature(self):
        kinetics = ReactionKinetics()
        k1_cold, k2_cold = kinetics.rate_constants(10.0)
        k1_hot, k2_hot = kinetics.rate_constants(40.0)
        assert k1_hot > k1_cold
        assert k2_hot > k2_cold

    def test_reference_temperature_returns_reference_rates(self):
        kinetics = ReactionKinetics()
        k1, k2 = kinetics.rate_constants(kinetics.t_ref_c)
        assert k1 == pytest.approx(kinetics.k1_ref)
        assert k2 == pytest.approx(kinetics.k2_ref)

    def test_outlet_components(self):
        out = ReactionKinetics().outlet_concentrations(ReactionConditions())
        assert set(out) == set(OBSERVED_COMPONENTS)
        assert all(v >= 0 for v in out.values())

    def test_mass_balance_on_toluidine_skeleton(self):
        """A + I + P must equal the toluidine feed (the skeleton is conserved)."""
        conditions = ReactionConditions(feed_toluidine=0.5)
        out = ReactionKinetics().outlet_concentrations(conditions)
        skeleton = out["p-toluidine"] + out["Li-toluidide"] + out["MNDPA"]
        assert skeleton == pytest.approx(0.5, rel=1e-6)

    def test_mass_balance_on_ofnb(self):
        conditions = ReactionConditions(feed_ofnb=0.45)
        out = ReactionKinetics().outlet_concentrations(conditions)
        assert out["o-FNB"] + out["MNDPA"] == pytest.approx(0.45, rel=1e-6)

    def test_longer_residence_gives_more_product(self):
        kinetics = ReactionKinetics()
        short = kinetics.outlet_concentrations(
            ReactionConditions(residence_time_s=20.0)
        )
        long = kinetics.outlet_concentrations(
            ReactionConditions(residence_time_s=500.0)
        )
        assert long["MNDPA"] > short["MNDPA"]
        assert long["o-FNB"] < short["o-FNB"]

    def test_hotter_reactor_converts_more(self):
        kinetics = ReactionKinetics()
        cold = kinetics.outlet_concentrations(ReactionConditions(temperature_c=5.0))
        hot = kinetics.outlet_concentrations(ReactionConditions(temperature_c=45.0))
        assert hot["MNDPA"] > cold["MNDPA"]


class TestDoE:
    def test_full_factorial_size(self):
        plan = DoEPlan.full_factorial()
        assert len(plan) == 27

    def test_factorial_covers_all_combinations(self):
        plan = DoEPlan.full_factorial(
            residence_times_s=(10.0, 20.0),
            temperatures_c=(20.0,),
            ofnb_equivalents=(1.0, 1.2),
        )
        assert len(plan) == 4
        taus = {c.residence_time_s for c in plan}
        assert taus == {10.0, 20.0}

    def test_lihmds_equivalents_applied(self):
        plan = DoEPlan.full_factorial(
            residence_times_s=(10.0,), temperatures_c=(20.0,),
            ofnb_equivalents=(1.0,), feed_toluidine=0.4, lihmds_equivalents=1.5,
        )
        assert plan.conditions[0].feed_lihmds == pytest.approx(0.6)


class TestExperiment:
    def _experiment(self, seed=0):
        return FlowReactorExperiment(
            ReactionKinetics(),
            VirtualNMRSpectrometer.benchtop(MODELS, seed=seed),
            seed=seed,
        )

    def test_dataset_shape_close_to_paper(self):
        """27 plateaus x 11 spectra = 297 ~ the paper's 300 raw spectra."""
        dataset = self._experiment().run(DoEPlan.full_factorial(), 11)
        assert len(dataset) == 297
        assert dataset.spectra.shape == (297, 1700)
        assert dataset.reference_labels.shape == (297, 4)
        assert dataset.true_labels.shape == (297, 4)

    def test_plateau_structure(self):
        dataset = self._experiment().run(DoEPlan.full_factorial(), 5)
        assert len(dataset.plateaus) == 27
        # Within one plateau all truths are identical.
        mask = dataset.plateau_ids == 3
        truths = dataset.true_labels[mask]
        np.testing.assert_array_equal(truths, np.tile(truths[0], (5, 1)))

    def test_reference_labels_close_to_truth(self):
        dataset = self._experiment().run(DoEPlan.full_factorial(), 3)
        error = np.abs(dataset.reference_labels - dataset.true_labels)
        # 0.5 % reference analysis error.
        assert np.median(error / np.maximum(dataset.true_labels, 1e-9)) < 0.02

    def test_concentration_ranges_cover_labels(self):
        dataset = self._experiment().run(DoEPlan.full_factorial(), 3)
        for j, name in enumerate(dataset.component_names):
            low, high = dataset.concentration_ranges()[name]
            column = dataset.reference_labels[:, j]
            assert low == column.min() and high == column.max()

    def test_validation(self):
        experiment = self._experiment()
        with pytest.raises(ValueError):
            experiment.run(DoEPlan.full_factorial(), 0)
        with pytest.raises(ValueError):
            experiment.run(DoEPlan([]), 5)
        with pytest.raises(ValueError):
            FlowReactorExperiment(
                ReactionKinetics(),
                VirtualNMRSpectrometer.benchtop(MODELS),
                reference_error=-0.1,
            )

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
    def test_fractional_or_non_finite_spectra_per_plateau_refused(self, bad):
        with pytest.raises(
            ValueError, match="spectra_per_plateau must be a whole number"
        ):
            self._experiment().run(DoEPlan.full_factorial(), bad)

    def test_seeded_reproducibility(self):
        plan = DoEPlan.full_factorial(residence_times_s=(30.0,),
                                      temperatures_c=(25.0,),
                                      ofnb_equivalents=(1.0,))
        a = self._experiment(seed=5).run(plan, 4)
        b = self._experiment(seed=5).run(plan, 4)
        np.testing.assert_array_equal(a.spectra, b.spectra)
        np.testing.assert_array_equal(a.reference_labels, b.reference_labels)
