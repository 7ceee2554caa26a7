"""NaN, infinite and empty-interval parameters are refused at construction.

Each was accepted before, and then either rendered all-NaN spectra (the
simulator and the spectrometer) or raised scipy's bounds error on the
first ``IHMAnalysis.analyze``.
"""

import numpy as np
import pytest

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.ihm import IHMAnalysis
from repro.nmr.reaction import DoEPlan, FlowReactorExperiment, ReactionKinetics
from repro.nmr.simulator import NMRSpectrumSimulator

MODELS = mndpa_reaction_models()
RANGES = {
    "p-toluidine": (0.0, 0.5),
    "Li-toluidide": (0.0, 0.5),
    "o-FNB": (0.0, 0.6),
    "MNDPA": (0.0, 0.45),
}
NON_FINITE = [np.nan, np.inf, -np.inf]
SIMULATOR_PARAMETERS = [
    "shift_sigma", "broadening_sigma", "noise_sigma",
    "baseline_amplitude", "phase_sigma", "peak_jitter",
]
SPECTROMETER_PARAMETERS = [
    "noise_sigma", "shift_jitter", "broadening_jitter",
    "baseline_amplitude", "phase_error_sigma", "peak_jitter",
]


class TestSimulator:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", SIMULATOR_PARAMETERS)
    def test_non_finite_parameter_refused(self, name, bad):
        with pytest.raises(ValueError, match=name):
            NMRSpectrumSimulator(MODELS, RANGES, **{name: bad})

    @pytest.mark.parametrize("name", SIMULATOR_PARAMETERS)
    def test_zero_stays_valid(self, name):
        simulator = NMRSpectrumSimulator(MODELS, RANGES, **{name: 0.0})
        x, _ = simulator.generate_dataset(4, np.random.default_rng(0))
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("bounds", [
        (np.nan, 0.5), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.5),
    ])
    def test_non_finite_range_refused(self, bounds):
        ranges = dict(RANGES, MNDPA=bounds)
        with pytest.raises(ValueError, match="invalid range for MNDPA"):
            NMRSpectrumSimulator(MODELS, ranges)

    @pytest.mark.parametrize("bad", NON_FINITE + [-0.1])
    def test_bad_range_padding_refused(self, bad):
        experiment = FlowReactorExperiment(
            ReactionKinetics(), VirtualNMRSpectrometer.benchtop(MODELS)
        )
        plan = DoEPlan.full_factorial(
            residence_times_s=(30.0, 120.0),
            temperatures_c=(25.0,),
            ofnb_equivalents=(1.0,),
        )
        dataset = experiment.run(plan, 2)
        with pytest.raises(ValueError, match="range_padding"):
            NMRSpectrumSimulator.from_dataset(MODELS, dataset, range_padding=bad)


class TestSpectrometer:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", SPECTROMETER_PARAMETERS)
    def test_non_finite_parameter_refused(self, name, bad):
        with pytest.raises(ValueError, match=name):
            VirtualNMRSpectrometer(MODELS, **{name: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", [
        "field_mhz", "broadening_factor", "matrix_shift_coeff",
    ])
    def test_non_finite_instrument_setting_refused(self, name, bad):
        with pytest.raises(ValueError, match=name):
            VirtualNMRSpectrometer(MODELS, **{name: bad})

    @pytest.mark.parametrize("name", SPECTROMETER_PARAMETERS)
    def test_zero_stays_valid(self, name):
        spectrum = VirtualNMRSpectrometer(MODELS, **{name: 0.0}).acquire(
            {"p-toluidine": 0.3, "MNDPA": 0.05}
        )
        assert np.isfinite(spectrum.intensities).all()


class TestIHMBounds:
    @pytest.mark.parametrize("kwargs,name", [
        ({"max_shift": 0.0}, "max_shift"),
        ({"max_shift": np.nan}, "max_shift"),
        ({"max_shift": np.nan, "fit_shifts": False}, "max_shift"),
        ({"max_concentration": 0.0}, "max_concentration"),
        ({"max_concentration": -1.0}, "max_concentration"),
        ({"max_concentration": np.nan}, "max_concentration"),
        ({"broadening_bounds": (1.0, 1.0)}, "broadening_bounds"),
        ({"broadening_bounds": (np.nan, 2.0)}, "broadening_bounds"),
        ({"broadening_bounds": (0.5, np.nan)}, "broadening_bounds"),
    ])
    def test_refused_at_construction(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            IHMAnalysis(MODELS, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_shift": 0.0, "fit_shifts": False},
        {"broadening_bounds": (1.0, 1.0), "fit_broadening": False},
        {"broadening_bounds": (1.0, 2.0)},
        {"broadening_bounds": (0.5, 1.0)},
    ])
    def test_fixed_or_one_sided_bounds_still_fit(self, kwargs):
        spectrum = MODELS.mixture_spectrum({"p-toluidine": 0.25, "MNDPA": 0.08})
        result = IHMAnalysis(MODELS, **kwargs).analyze(spectrum)
        assert result.concentrations["p-toluidine"] == pytest.approx(0.25, abs=1e-3)
