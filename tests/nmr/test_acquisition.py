"""Unit tests for the virtual benchtop NMR spectrometer."""

import hashlib

import numpy as np
import pytest

from repro.nmr.acquisition import NMRSpectrum, VirtualNMRSpectrometer
from repro.nmr.hard_model import ChemicalShiftAxis, mndpa_reaction_models
from repro.nmr.reaction import DoEPlan, FlowReactorExperiment, ReactionKinetics

MODELS = mndpa_reaction_models()
CONC = {"p-toluidine": 0.3, "Li-toluidide": 0.1, "o-FNB": 0.4, "MNDPA": 0.05}


def _digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestNMRSpectrum:
    def test_size_validation(self):
        with pytest.raises(ValueError, match="axis points"):
            NMRSpectrum(ChemicalShiftAxis(), np.zeros(10))

    def test_integral_proportional_to_concentration(self):
        quiet = VirtualNMRSpectrometer(
            MODELS, noise_sigma=0.0, shift_jitter=0.0, broadening_jitter=0.0,
            baseline_amplitude=0.0, phase_error_sigma=0.0, peak_jitter=0.0,
            matrix_shift_coeff=0.0,
        )
        s1 = quiet.acquire({"MNDPA": 0.1})
        s2 = quiet.acquire({"MNDPA": 0.2})
        # NH peak at ~9.42 ppm is isolated; its area must double.
        grid = MODELS.axis.values()
        nh = (grid >= 9.0) & (grid <= 9.9)
        a1 = np.sum(s1.intensities[nh]) * MODELS.axis.step
        a2 = np.sum(s2.intensities[nh]) * MODELS.axis.step
        assert a2 == pytest.approx(2 * a1, rel=0.01)


class TestSpectrometer:
    def test_acquire_shape_and_metadata(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        spectrum = spectrometer.acquire(CONC)
        assert len(spectrum) == 1700
        assert spectrum.metadata["concentrations"] == CONC

    def test_repeated_acquisitions_differ(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        a = spectrometer.acquire(CONC).intensities
        b = spectrometer.acquire(CONC).intensities
        assert not np.array_equal(a, b)

    def test_empty_components_are_skipped(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        spectrum = spectrometer.acquire({"MNDPA": 0.0})
        # Only baseline + noise remain.
        assert np.abs(spectrum.intensities).max() < 0.2

    def test_negative_concentration_rejected(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        with pytest.raises(ValueError, match="negative"):
            spectrometer.acquire({"MNDPA": -0.1})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_concentration_rejected(self, bad):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        with pytest.raises(ValueError, match="finite"):
            spectrometer.acquire({"MNDPA": bad})

    def test_unknown_component_rejected(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        with pytest.raises(ValueError, match="unknown components"):
            spectrometer.acquire({"mndpa": 0.3})

    def test_refused_call_draws_nothing(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS, seed=3)
        for bad in ({"MNDPA": -0.1}, {"MNDPA": np.nan}, {"mndpa": 0.3}):
            with pytest.raises(ValueError):
                spectrometer.acquire(bad)
        fresh = VirtualNMRSpectrometer.benchtop(MODELS, seed=3)
        np.testing.assert_array_equal(
            spectrometer.acquire(CONC).intensities,
            fresh.acquire(CONC).intensities,
        )

    def test_matrix_shift_grows_with_load(self):
        quiet = VirtualNMRSpectrometer(
            MODELS, noise_sigma=0.0, shift_jitter=0.0, broadening_jitter=0.0,
            baseline_amplitude=0.0, phase_error_sigma=0.0, peak_jitter=0.0,
            matrix_shift_coeff=0.02,
        )
        lo = quiet.acquire({"MNDPA": 0.05})
        hi = quiet.acquire({"MNDPA": 0.05, "o-FNB": 1.5})
        grid = MODELS.axis.values()
        nh = (grid > 9.0) & (grid < 9.9)
        peak_lo = grid[nh][np.argmax(lo.intensities[nh])]
        peak_hi = grid[nh][np.argmax(hi.intensities[nh])]
        assert peak_hi > peak_lo

    def test_seeded_reproducibility(self):
        a = VirtualNMRSpectrometer.benchtop(MODELS, seed=42).acquire(CONC)
        b = VirtualNMRSpectrometer.benchtop(MODELS, seed=42).acquire(CONC)
        np.testing.assert_array_equal(a.intensities, b.intensities)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            VirtualNMRSpectrometer(MODELS, noise_sigma=-1.0)

    def test_external_rng_overrides_internal(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS)
        rng = np.random.default_rng(0)
        a = spectrometer.acquire(CONC, rng=np.random.default_rng(0)).intensities
        b = spectrometer.acquire(CONC, rng=np.random.default_rng(0)).intensities
        np.testing.assert_array_equal(a, b)
        _ = rng


class TestBytesArePinned:
    """Output bytes and the generator's next draw; any change to the
    render or to its draw order moves them."""

    def test_benchtop_spectrum(self):
        spectrometer = VirtualNMRSpectrometer.benchtop(MODELS, seed=3)
        spectrum = spectrometer.acquire(CONC)
        assert _digest(spectrum.intensities) == (
            "cb6088b24239a6cea6a4122ec86fce1cdb38584cb1d9259d7e71166b8cf745e9"
        )
        assert spectrometer._rng.random() == 0.9544800611912817

    def test_reactor_campaign(self):
        experiment = FlowReactorExperiment(
            ReactionKinetics(), VirtualNMRSpectrometer.benchtop(MODELS)
        )
        plan = DoEPlan.full_factorial(
            residence_times_s=(30.0, 120.0),
            temperatures_c=(25.0,),
            ofnb_equivalents=(1.0,),
        )
        dataset = experiment.run(plan, 3)
        assert dataset.spectra.shape == (6, 1700)
        assert _digest(
            dataset.spectra, dataset.true_labels, dataset.reference_labels
        ) == "4e7731f1cc244f110fb0166c46119de8c5fea950d91ca91f148e68656aca7d32"
