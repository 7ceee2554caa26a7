"""Unit tests for the IHM-based data-augmentation simulator."""

import hashlib

import numpy as np
import pytest

from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.reaction import DoEPlan, FlowReactorExperiment, ReactionKinetics
from repro.nmr.simulator import NMRSpectrumSimulator

MODELS = mndpa_reaction_models()
RANGES = {
    "p-toluidine": (0.0, 0.5),
    "Li-toluidide": (0.0, 0.5),
    "o-FNB": (0.0, 0.6),
    "MNDPA": (0.0, 0.45),
}


def _simulator(**kwargs):
    return NMRSpectrumSimulator(MODELS, RANGES, **kwargs)


class TestConstruction:
    def test_missing_range_rejected(self):
        with pytest.raises(ValueError, match="no concentration range"):
            NMRSpectrumSimulator(MODELS, {"MNDPA": (0.0, 1.0)})

    def test_invalid_range_rejected(self):
        bad = dict(RANGES)
        bad["MNDPA"] = (0.5, 0.1)
        with pytest.raises(ValueError, match="invalid range"):
            NMRSpectrumSimulator(MODELS, bad)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            _simulator(noise_sigma=-0.1)

    def test_from_dataset_pads_ranges(self):
        experiment = FlowReactorExperiment(
            ReactionKinetics(), VirtualNMRSpectrometer.benchtop(MODELS)
        )
        plan = DoEPlan.full_factorial(
            residence_times_s=(30.0, 120.0),
            temperatures_c=(25.0,),
            ofnb_equivalents=(1.0,),
        )
        dataset = experiment.run(plan, 3)
        simulator = NMRSpectrumSimulator.from_dataset(
            MODELS, dataset, range_padding=0.2
        )
        for name, (low, high) in dataset.concentration_ranges().items():
            sim_low, sim_high = simulator.ranges[name]
            assert sim_low <= low
            assert sim_high >= high


class TestSampling:
    def test_concentrations_within_ranges(self):
        simulator = _simulator()
        samples = simulator.sample_concentrations(200, np.random.default_rng(0))
        assert samples.shape == (200, 4)
        for j, name in enumerate(MODELS.names):
            low, high = RANGES[name]
            assert samples[:, j].min() >= low
            assert samples[:, j].max() <= high

    def test_sampling_is_independent_across_components(self):
        simulator = _simulator()
        samples = simulator.sample_concentrations(3000, np.random.default_rng(1))
        corr = np.corrcoef(samples.T)
        off_diagonal = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off_diagonal).max() < 0.1

    def test_n_validation(self):
        with pytest.raises(ValueError):
            _simulator().sample_concentrations(0, np.random.default_rng(0))


class TestGeneration:
    def test_shapes(self):
        x, y = _simulator().generate_dataset(32, np.random.default_rng(0))
        assert x.shape == (32, 1700)
        assert y.shape == (32, 4)

    def test_chunking_does_not_change_labels(self):
        simulator = _simulator()
        _, y1 = simulator.generate_dataset(50, np.random.default_rng(3), chunk_size=7)
        _, y2 = simulator.generate_dataset(50, np.random.default_rng(3), chunk_size=50)
        np.testing.assert_array_equal(y1, y2)

    def test_noise_free_generation_is_pure_mixture_model(self):
        simulator = _simulator()
        labels = np.array([[0.3, 0.1, 0.4, 0.05]])
        x, _ = simulator.generate_dataset(
            1, np.random.default_rng(0), concentrations=labels, with_noise=False
        )
        expected = MODELS.mixture_spectrum(
            dict(zip(MODELS.names, labels[0]))
        )
        np.testing.assert_allclose(x[0], expected, atol=1e-10)

    def test_explicit_concentrations_returned_as_labels(self):
        simulator = _simulator()
        labels = np.tile([[0.2, 0.2, 0.2, 0.2]], (5, 1))
        _, y = simulator.generate_dataset(
            5, np.random.default_rng(0), concentrations=labels
        )
        np.testing.assert_array_equal(y, labels)

    def test_bad_concentration_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            _simulator().generate_dataset(
                4, np.random.default_rng(0), concentrations=np.ones((4, 2))
            )

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_negative_or_nonfinite_concentrations_rejected(self, bad):
        """The same contract as ``HardModelSet.mixture_spectrum`` and
        ``VirtualNMRSpectrometer.acquire``: no negative concentrations."""
        labels = np.full((3, 4), 0.2)
        labels[1, 2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            _simulator().generate_dataset(
                3, np.random.default_rng(0), concentrations=labels
            )

    def test_noisy_spectra_differ_between_samples(self):
        simulator = _simulator()
        labels = np.tile([[0.3, 0.1, 0.4, 0.05]], (2, 1))
        x, _ = simulator.generate_dataset(
            2, np.random.default_rng(0), concentrations=labels
        )
        assert not np.allclose(x[0], x[1])

    def test_phase_errors_create_asymmetry(self):
        """With a large phase sigma the NH line becomes visibly asymmetric."""
        simulator = _simulator(
            phase_sigma=0.5, noise_sigma=0.0, baseline_amplitude=0.0,
            shift_sigma=0.0, broadening_sigma=0.0, peak_jitter=0.0,
        )
        labels = np.array([[0.0, 0.0, 0.0, 0.4]])
        rng = np.random.default_rng(5)
        x, _ = simulator.generate_dataset(1, rng, concentrations=labels)
        grid = MODELS.axis.values()
        window = (grid > 9.0) & (grid < 9.9)
        segment = x[0][window]
        assert not np.allclose(segment, segment[::-1], atol=1e-3)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            _simulator().generate_dataset(
                4, np.random.default_rng(0), chunk_size=0
            )

    # sha256 of (X, Y) as little-endian float64, captured before rendering
    # moved to fixed row blocks (numpy 2.4, x86-64 with AVX-512).  Datasets
    # are cached by their generating config, so any moved bit would serve
    # stale caches: bump CACHE_FORMAT_VERSION deliberately instead.
    PINNED = {
        "noisy_default_chunk": (
            lambda sim: sim.generate_dataset(800, np.random.default_rng(0)),
            "cd9c0e25c6e38bd257215d56e8d1227529a04f481243cf1a74e59053d6b31d42",
        ),
        "chunked": (
            lambda sim: sim.generate_dataset(
                333, np.random.default_rng(1), chunk_size=100
            ),
            "ed647bc2179628ad9fbe48ac631a820d9b9d6d9ef136bdba8ceb2d260de94e5d",
        ),
        "noise_free": (
            lambda sim: sim.generate_dataset(
                64, np.random.default_rng(2), with_noise=False
            ),
            "f3a4ccb6dd5aa95e28d01b618751b1040d8f7544d260d96cc1f070df0bb6338d",
        ),
        "explicit_concentrations": (
            lambda sim: sim.generate_dataset(
                40, np.random.default_rng(3),
                concentrations=np.random.default_rng(40).uniform(
                    0.0, 0.4, size=(40, 4)
                ),
            ),
            "57b4c1dd79a90021a7b48f660d21b55990f157557b9f799d0e23d98d3901a108",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes_are_pinned(self, case):
        generate, expected = self.PINNED[case]
        x, y = generate(_simulator())
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(y, dtype="<f8").tobytes())
        assert digest.hexdigest() == expected

    def test_scaling_linearity_without_noise(self):
        simulator = _simulator()
        ones = np.array([[0.1, 0.1, 0.1, 0.1]])
        x1, _ = simulator.generate_dataset(
            1, np.random.default_rng(0), concentrations=ones, with_noise=False
        )
        x2, _ = simulator.generate_dataset(
            1, np.random.default_rng(0), concentrations=2 * ones, with_noise=False
        )
        np.testing.assert_allclose(x2, 2 * x1, rtol=1e-9)
