"""Unit tests for Tool 3 (the mass-spectrometer simulator)."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.line_spectra import ideal_mixture_spectrum
from repro.ms import simulator as simulator_module
from repro.ms.simulator import _BLOCK_ROWS, MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis

LIB = default_library()
TASK = DEFAULT_TASK_COMPOUNDS


def _simulator(**overrides):
    return MassSpectrometerSimulator(
        InstrumentCharacteristics(**overrides), MzAxis(), LIB
    )


class TestRender:
    def test_noise_free_render_is_deterministic(self):
        sim = _simulator(ignition_gas_intensity=0.0)
        lines = ideal_mixture_spectrum({"Ar": 1.0}, LIB)
        a = sim.render(lines, with_noise=False).intensities
        b = sim.render(lines, with_noise=False).intensities
        np.testing.assert_array_equal(a, b)

    def test_with_noise_requires_rng(self):
        sim = _simulator()
        lines = ideal_mixture_spectrum({"Ar": 1.0}, LIB)
        with pytest.raises(ValueError, match="rng"):
            sim.render(lines, with_noise=True)

    def test_ignition_gas_present_in_render(self):
        sim = _simulator(ignition_gas_intensity=0.1)
        spectrum = sim.simulate({"Ar": 1.0}, with_noise=False)
        assert spectrum.intensities[spectrum.axis.index_of(4.0)] > 0.05

    def test_simulate_peak_positions_match_compound(self):
        sim = _simulator(ignition_gas_intensity=0.0)
        spectrum = sim.simulate({"CO2": 1.0}, with_noise=False)
        peak_mz = spectrum.mz[np.argmax(spectrum.intensities)]
        assert peak_mz == pytest.approx(44.0, abs=0.1)


class TestResponseMatrix:
    def test_shape(self):
        sim = _simulator()
        matrix = sim.response_matrix(TASK)
        assert matrix.shape == (len(TASK), MzAxis().size)

    def test_mixture_is_linear_combination(self):
        sim = _simulator(ignition_gas_intensity=0.0)
        matrix = sim.response_matrix(["N2", "O2"])
        mixed = sim.simulate({"N2": 0.6, "O2": 0.4}, with_noise=False)
        np.testing.assert_allclose(
            mixed.intensities, 0.6 * matrix[0] + 0.4 * matrix[1], atol=1e-12
        )


class TestGenerateDataset:
    def test_shapes_and_label_simplex(self):
        sim = _simulator()
        x, y = sim.generate_dataset(TASK, 64, np.random.default_rng(0))
        assert x.shape == (64, MzAxis().size)
        assert y.shape == (64, len(TASK))
        np.testing.assert_allclose(y.sum(axis=1), 1.0)
        assert np.all(y >= 0)

    def test_max_normalization(self):
        sim = _simulator()
        x, _ = sim.generate_dataset(TASK, 16, np.random.default_rng(0))
        np.testing.assert_allclose(x.max(axis=1), 1.0)

    def test_area_normalization(self):
        sim = _simulator()
        x, _ = sim.generate_dataset(
            TASK, 16, np.random.default_rng(0), normalize="area"
        )
        np.testing.assert_allclose(x.sum(axis=1) * MzAxis().step, 1.0, rtol=1e-9)

    def test_no_normalization(self):
        sim = _simulator()
        x, _ = sim.generate_dataset(
            TASK, 16, np.random.default_rng(0), normalize="none"
        )
        assert not np.allclose(x.max(axis=1), 1.0)

    def test_bad_normalize_mode(self):
        sim = _simulator()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="normalize"):
            sim.generate_dataset(TASK, 4, rng, normalize="l2")
        # Rejected before anything is drawn: the caller's stream is intact.
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_fractional_or_non_finite_n_refused(self, bad):
        with pytest.raises(ValueError, match="n must be a whole number"):
            _simulator().generate_dataset(TASK, bad, np.random.default_rng(0))

    def test_reproducible_with_seeded_rng(self):
        sim = _simulator()
        x1, y1 = sim.generate_dataset(TASK, 8, np.random.default_rng(5))
        x2, y2 = sim.generate_dataset(TASK, 8, np.random.default_rng(5))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_custom_concentration_sampler(self):
        sim = _simulator()

        def sampler(n, rng):
            labels = np.zeros((n, len(TASK)))
            labels[:, 0] = 1.0
            return labels

        x, y = sim.generate_dataset(
            TASK, 8, np.random.default_rng(0), concentration_sampler=sampler
        )
        np.testing.assert_array_equal(y[:, 0], 1.0)

    def test_bad_sampler_shape_rejected(self):
        sim = _simulator()
        with pytest.raises(ValueError, match="sampler"):
            sim.generate_dataset(
                TASK,
                8,
                np.random.default_rng(0),
                concentration_sampler=lambda n, rng: np.ones((n, 2)),
            )

    def test_input_validation(self):
        sim = _simulator()
        with pytest.raises(ValueError):
            sim.generate_dataset(TASK, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sim.generate_dataset([], 8, np.random.default_rng(0))

    def test_noise_free_dataset_is_pure_linear_model(self):
        sim = _simulator(ignition_gas_intensity=0.0)
        x, y = sim.generate_dataset(
            ["N2", "O2"], 8, np.random.default_rng(0),
            with_noise=False, normalize="none",
        )
        matrix = sim.response_matrix(["N2", "O2"])
        np.testing.assert_allclose(x, y @ matrix, atol=1e-12)


class TestGenerateDatasetBytes:
    """The output bytes and the random stream are part of the contract:
    datasets are cached by their generating config, so a moved bit would
    serve stale caches (bump ``CACHE_FORMAT_VERSION`` deliberately)."""

    AXIS = MzAxis(1.0, 50.0, 0.2)  # 246 points

    # config -> (sha256 of X, sha256 of Y, the generator's next random()),
    # captured from the whole-dataset implementation (numpy 2.4, x86-64).
    PINNED = {
        "rows_not_a_block_multiple": (
            dict(n=333, seed=0),
            "69c976a82fe1b20258b8d2ad5d4c77f46334dbfd0519ea7b35b6c79171dcaaeb",
            "0324bae2f9d287a947a24cc31d3afef62dc24759b551625583a51043dcea1634",
            0.5388448318078544,
        ),
        "one_row": (
            dict(n=1, seed=1),
            "bddc3cb7d43640bee5645e43dcfecd3ebcc2e29f6f7df525d96590da8324c0fa",
            "a11cee98e24a8445eec288f99626f07d47a82baa95315abefa5f08cfd69c7bf5",
            0.08718824098875189,
        ),
        "area": (
            dict(n=200, seed=2, normalize="area"),
            "4d377897b5a27a1478be62df0b4e15093462901a61e7316cc3821c642d4c3365",
            "8c34abd87348383b14b87fec0bb900135a20a69f01250beede136792056146ac",
            0.2370717639456016,
        ),
        "none": (
            dict(n=200, seed=3, normalize="none"),
            "515d1897b32320735386c2d7cb701aba23ed243511ae8143cff410c601e263b4",
            "76e633daaa090bee0b3197fba8c6ae5c238acbf3216f2aa2f114014fa4d5b989",
            0.6258100939376513,
        ),
        "noise_free": (
            dict(n=200, seed=4, with_noise=False),
            "e21a3daa38a8518bbbe4cb583ee6410f9a0b87302ad64b9b39781c8bcad6dc87",
            "48e03c79b71cf49473f8507df3b01f90fa1b7621292320d3cc1e151bf6ea1ad7",
            0.8195483577674114,
        ),
        "zero_baseline": (
            dict(n=200, seed=5, characteristics=dict(baseline_amplitude=0.0)),
            "601aeb04692a80a62d85af7bbe7d35046298fed1ee8b707a776913c153d45e46",
            "1f6d4e6f2e0314f7993c14321979c95c461151577ecad410d8c485f89d930a9b",
            0.2213418686963401,
        ),
        "zero_noise_sigma": (
            dict(n=200, seed=6, characteristics=dict(noise_sigma=0.0)),
            "dd74b9950862ec1b0a1e87adb7c39919eee658ca4d2a10471989ad5b463729e6",
            "7e911d6c03a4dd81d95af78d2808ed278200a79e9ce0fe84b05098248908ff2e",
            0.33050205305025615,
        ),
        "zero_shot_noise": (
            dict(n=200, seed=7, characteristics=dict(shot_noise_factor=0.0)),
            "21d6fa37deb02aecfb82b0d2804921d6e92b3bfa2e70b283eb7ea8a4259dd0ea",
            "8ed16bd6add1a7cbab1b4ed3da7beeec942e23ab7dd9ebb91620e7e2f6fc8177",
            0.5888417542036273,
        ),
    }

    def test_pinned_sizes_cover_partial_blocks(self):
        assert self.PINNED["rows_not_a_block_multiple"][0]["n"] % _BLOCK_ROWS
        assert 1 < _BLOCK_ROWS < 200

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes_and_stream_are_pinned(self, case):
        config, x_sha, y_sha, next_draw = self.PINNED[case]
        config = dict(config)
        sim = MassSpectrometerSimulator(
            InstrumentCharacteristics(**config.pop("characteristics", {})),
            self.AXIS, LIB,
        )
        rng = np.random.default_rng(config.pop("seed"))
        x, y = sim.generate_dataset(TASK, config.pop("n"), rng, **config)
        assert hashlib.sha256(x.tobytes()).hexdigest() == x_sha
        assert hashlib.sha256(y.tobytes()).hexdigest() == y_sha
        assert rng.random() == next_draw

    def test_render_bytes_and_stream_are_pinned(self):
        """render() draws baseline and noise by the same formula."""
        sim = MassSpectrometerSimulator(InstrumentCharacteristics(), self.AXIS, LIB)
        rng = np.random.default_rng(8)
        spectrum = sim.render(ideal_mixture_spectrum({"N2": 0.7, "O2": 0.3}, LIB), rng=rng)
        assert hashlib.sha256(spectrum.intensities.tobytes()).hexdigest() == (
            "eb2add4377c686a73beca451de5bf0ea91ee36cbb0c807f3aa98eaa697eb40eb"
        )
        assert rng.random() == 0.41077321177152626

    def test_peak_memory_is_bounded_by_the_output(self):
        """Post-processing runs in row blocks, so the peak is the returned
        arrays plus a constant, not a multiple of the dataset."""
        sim = MassSpectrometerSimulator(InstrumentCharacteristics(), self.AXIS, LIB)
        tracemalloc.start()
        try:
            x, y = sim.generate_dataset(TASK, 20_000, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (20_000, 246)
        assert peak <= 1.5 * (x.nbytes + y.nbytes)


class TestShotNoiseThread:
    """A pass of several blocks draws its shot normals on a helper thread;
    whatever happens, the thread is gone when the call returns."""

    AXIS = MzAxis(1.0, 50.0, 0.2)

    def _sim(self):
        return MassSpectrometerSimulator(InstrumentCharacteristics(), self.AXIS, LIB)

    @pytest.fixture
    def thread_starts(self, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return starts

    def test_a_multi_block_pass_uses_one_thread_and_joins_it(self, thread_starts):
        before = threading.active_count()
        self._sim().generate_dataset(TASK, 3 * _BLOCK_ROWS, np.random.default_rng(0))
        assert len(thread_starts) == 1
        assert threading.active_count() == before

    def test_one_row_render_starts_no_thread(self, thread_starts):
        lines = ideal_mixture_spectrum({"N2": 0.7, "O2": 0.3}, LIB)
        self._sim().render(lines, rng=np.random.default_rng(8))
        self._sim().generate_dataset(TASK, _BLOCK_ROWS, np.random.default_rng(0))
        assert thread_starts == []

    def test_thread_switches_move_no_byte(self, monkeypatch):
        """One-slot ring and a switch every microsecond: the helper and the
        main thread interleave as finely as they can, and the pinned bytes
        and stream end state still come out."""
        config, x_sha, y_sha, next_draw = TestGenerateDatasetBytes.PINNED["rows_not_a_block_multiple"]
        monkeypatch.setattr(simulator_module, "_RING_BLOCKS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = np.random.default_rng(config["seed"])
            x, y = self._sim().generate_dataset(TASK, config["n"], rng)
        finally:
            sys.setswitchinterval(interval)
        assert hashlib.sha256(x.tobytes()).hexdigest() == x_sha
        assert hashlib.sha256(y.tobytes()).hexdigest() == y_sha
        assert rng.random() == next_draw

    def test_main_thread_error_propagates_and_joins(self, monkeypatch):
        baselines = MassSpectrometerSimulator._baselines
        calls = []

        def failing_baselines(sim, phases, slopes):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("baseline failed")
            return baselines(sim, phases, slopes)

        monkeypatch.setattr(MassSpectrometerSimulator, "_baselines", failing_baselines)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="baseline failed"):
            self._sim().generate_dataset(TASK, 10 * _BLOCK_ROWS, np.random.default_rng(0))
        assert threading.active_count() == before

    def test_producer_error_propagates_and_joins(self, monkeypatch):
        shot_normals = simulator_module._shot_normals

        def failing_shot_normals(rng, n, ring):
            blocks = shot_normals(rng, n, ring)
            yield next(blocks)
            raise RuntimeError("shot draw failed")

        monkeypatch.setattr(simulator_module, "_shot_normals", failing_shot_normals)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="shot draw failed"):
            self._sim().generate_dataset(TASK, 10 * _BLOCK_ROWS, np.random.default_rng(0))
        assert threading.active_count() == before
