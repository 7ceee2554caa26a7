"""Unit tests for the IHM-based data-augmentation simulator."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.nmr import simulator as simulator_module
from repro.nmr.acquisition import VirtualNMRSpectrometer
from repro.nmr.hard_model import mndpa_reaction_models
from repro.nmr.reaction import DoEPlan, FlowReactorExperiment, ReactionKinetics
from repro.nmr.simulator import _BLOCK_ROWS, NMRSpectrumSimulator

MODELS = mndpa_reaction_models()
RANGES = {
    "p-toluidine": (0.0, 0.5),
    "Li-toluidide": (0.0, 0.5),
    "o-FNB": (0.0, 0.6),
    "MNDPA": (0.0, 0.45),
}


def _simulator(**kwargs):
    return NMRSpectrumSimulator(MODELS, RANGES, **kwargs)


def _digest(x, y):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(y, dtype="<f8").tobytes())
    return digest.hexdigest()


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

    def test_zero_rows_of_explicit_concentrations_refused(self):
        """As without concentrations: no call returns an empty dataset."""
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            _simulator().generate_dataset(
                0, np.random.default_rng(0), concentrations=np.zeros((0, 4))
            )

    @pytest.mark.parametrize("field", ["n", "chunk_size"])
    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_fractional_or_non_finite_count_refused(self, field, bad):
        counts = {"n": 4, "chunk_size": 2048, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            _simulator().generate_dataset(
                counts["n"], np.random.default_rng(0),
                chunk_size=counts["chunk_size"],
            )

    # sha256 of (X, Y) as little-endian float64, captured before rendering
    # moved to fixed row blocks (numpy 2.4, x86-64 with AVX-512).  Datasets
    # are cached by their generating config, so any moved bit would serve
    # stale caches: bump CACHE_FORMAT_VERSION deliberately instead.  Each
    # case is (seed, call, digest, the generator's next random() after the
    # call); the end states and "no_baseline" were captured before the
    # blocks were rendered on two threads.
    PINNED = {
        "noisy_default_chunk": (
            0,
            lambda sim, rng: sim.generate_dataset(800, rng),
            "cd9c0e25c6e38bd257215d56e8d1227529a04f481243cf1a74e59053d6b31d42",
            0.013881714105269949,
        ),
        "chunked": (
            1,
            lambda sim, rng: sim.generate_dataset(333, rng, chunk_size=100),
            "ed647bc2179628ad9fbe48ac631a820d9b9d6d9ef136bdba8ceb2d260de94e5d",
            0.7407671212307105,
        ),
        "noise_free": (
            2,
            lambda sim, rng: sim.generate_dataset(64, rng, with_noise=False),
            "f3a4ccb6dd5aa95e28d01b618751b1040d8f7544d260d96cc1f070df0bb6338d",
            0.26739823009819164,
        ),
        "explicit_concentrations": (
            3,
            lambda sim, rng: sim.generate_dataset(
                40, rng,
                concentrations=np.random.default_rng(40).uniform(
                    0.0, 0.4, size=(40, 4)
                ),
            ),
            "57b4c1dd79a90021a7b48f660d21b55990f157557b9f799d0e23d98d3901a108",
            0.023719102960259253,
        ),
        "no_baseline": (
            4,
            lambda sim, rng: _simulator(baseline_amplitude=0.0).generate_dataset(
                100, rng, chunk_size=64
            ),
            "75ca69f4e4e2188fd913ad6d243d132e06435116ecd09aefaddc68c843645578",
            0.7340867577669005,
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes_are_pinned(self, case):
        seed, generate, expected, _ = self.PINNED[case]
        x, y = generate(_simulator(), np.random.default_rng(seed))
        assert _digest(x, y) == expected

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_generator_end_state_is_pinned(self, case):
        """The call draws exactly the numbers a serial render draws: the
        caller's next draw from the generator is unchanged."""
        seed, generate, _, expected = self.PINNED[case]
        rng = np.random.default_rng(seed)
        generate(_simulator(), rng)
        assert rng.random() == expected

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


class TestRenderThreads:
    """Row blocks render on the calling thread and one helper thread."""

    @pytest.fixture
    def thread_starts(self, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return starts

    def test_each_multi_block_chunk_uses_one_thread_and_joins_it(self, thread_starts):
        before = threading.active_count()
        _simulator().generate_dataset(333, np.random.default_rng(1), chunk_size=100)
        assert len(thread_starts) == 4  # chunks of 100, 100, 100 and 33 rows
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, thread_starts):
        _simulator().generate_dataset(_BLOCK_ROWS, np.random.default_rng(0))
        _simulator().generate_dataset(
            100, np.random.default_rng(0), chunk_size=_BLOCK_ROWS
        )
        assert thread_starts == []

    def test_only_the_calling_thread_draws(self):
        caller = threading.current_thread()
        drawing = []

        class Recording(np.random.Generator):
            def normal(self, *args, **kwargs):
                drawing.append(threading.current_thread())
                return super().normal(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                drawing.append(threading.current_thread())
                return super().uniform(*args, **kwargs)

        seed, generate, expected, next_draw = TestGeneration.PINNED["chunked"]
        rng = Recording(np.random.PCG64(seed))
        assert _digest(*generate(_simulator(), rng)) == expected
        assert rng.random() == next_draw
        assert drawing and set(drawing) == {caller}

    @pytest.mark.parametrize("case", ["chunked", "noisy_default_chunk"])
    def test_thread_switches_move_no_byte(self, case):
        """A switch every microsecond: the two threads interleave as finely
        as they can, and the pinned bytes and end state still come out."""
        seed, generate, expected, next_draw = TestGeneration.PINNED[case]
        rng = np.random.default_rng(seed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            x, y = generate(_simulator(), rng)
        finally:
            sys.setswitchinterval(interval)
        assert _digest(x, y) == expected
        assert rng.random() == next_draw

    def test_helper_error_propagates_and_joins(self, monkeypatch):
        caller = threading.current_thread()
        table = simulator_module.pseudo_voigt_table
        on_helper = threading.Event()

        def failing_on_helper(*args, **kwargs):
            if threading.current_thread() is caller:
                # Hold the calling thread until the helper has rendered.
                assert on_helper.wait(timeout=30)
                return table(*args, **kwargs)
            on_helper.set()
            raise RuntimeError("helper render failed")

        monkeypatch.setattr(simulator_module, "pseudo_voigt_table", failing_on_helper)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper render failed"):
            _simulator().generate_dataset(4 * _BLOCK_ROWS, np.random.default_rng(0))
        assert on_helper.is_set()
        assert threading.active_count() == before

    def test_calling_thread_error_propagates_and_joins(self, monkeypatch):
        caller = threading.current_thread()
        table = simulator_module.pseudo_voigt_table

        def failing_on_caller(*args, **kwargs):
            if threading.current_thread() is caller:
                raise RuntimeError("caller render failed")
            return table(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "pseudo_voigt_table", failing_on_caller)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller render failed"):
            _simulator().generate_dataset(4 * _BLOCK_ROWS, np.random.default_rng(0))
        assert threading.active_count() == before
