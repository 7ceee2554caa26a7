"""Cache-aware dataset generation: the MS wrapper and pipeline wiring."""

import numpy as np
import pytest

from repro.compute import ArtifactCache
from repro.compute.datasets import generate_ms_dataset, ms_dataset_config
from repro.ms import (
    InstrumentCharacteristics,
    MassSpectrometerSimulator,
    MzAxis,
    default_library,
)

COMPOUNDS = ["N2", "O2", "Ar"]


def _ms_simulator():
    return MassSpectrometerSimulator(
        InstrumentCharacteristics(), MzAxis(1.0, 50.0, 0.5), default_library()
    )


class TestMsWrapper:
    def test_cold_then_warm_identical(self, tmp_path):
        simulator = _ms_simulator()
        cache = ArtifactCache(tmp_path / "cache")
        x1, y1, info1 = generate_ms_dataset(
            simulator, COMPOUNDS, 20, seed=5, cache=cache
        )
        x2, y2, info2 = generate_ms_dataset(
            simulator, COMPOUNDS, 20, seed=5, cache=cache
        )
        assert info1["hit"] is False
        assert info2["hit"] is True
        assert info1["key"] == info2["key"]
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_matches_direct_generation(self, tmp_path):
        simulator = _ms_simulator()
        cache = ArtifactCache(tmp_path / "cache")
        x_cached, y_cached, _ = generate_ms_dataset(
            simulator, COMPOUNDS, 15, seed=3, cache=cache
        )
        x_direct, y_direct = simulator.generate_dataset(
            COMPOUNDS, 15, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(x_cached, x_direct)
        np.testing.assert_array_equal(y_cached, y_direct)

    def test_config_covers_generation_surface(self):
        simulator = _ms_simulator()
        base = ms_dataset_config(simulator, COMPOUNDS, 10, 0)
        assert base != ms_dataset_config(simulator, COMPOUNDS, 10, 1)
        assert base != ms_dataset_config(simulator, COMPOUNDS, 11, 0)
        assert base != ms_dataset_config(simulator, COMPOUNDS[:2], 10, 0)
        assert base != ms_dataset_config(
            simulator, COMPOUNDS, 10, 0, normalize="area"
        )
        other = MassSpectrometerSimulator(
            InstrumentCharacteristics(noise_sigma=0.5),
            simulator.axis,
            simulator.library,
        )
        assert base != ms_dataset_config(other, COMPOUNDS, 10, 0)

    def test_without_cache_still_generates(self):
        x, y, info = generate_ms_dataset(_ms_simulator(), COMPOUNDS, 5, seed=1)
        assert x.shape[0] == 5
        assert info["hit"] is False


class TestPipelineWiring:
    def test_generate_training_data_caches(self, tmp_path):
        from repro.core.pipeline import MSToolchain

        cache = ArtifactCache(tmp_path / "cache")
        toolchain = MSToolchain(COMPOUNDS, axis=MzAxis(1.0, 50.0, 0.5))
        first, _ = toolchain.generate_training_data(
            _ms_simulator(), 20, cache=cache, seed=9
        )
        assert first.metadata["cache_hit"] is False
        second, _ = toolchain.generate_training_data(
            _ms_simulator(), 20, cache=cache, seed=9
        )
        assert second.metadata["cache_hit"] is True
        assert second.metadata["cache_key"] == first.metadata["cache_key"]
        np.testing.assert_array_equal(first.x, second.x)

    def test_cache_requires_seed(self, tmp_path):
        from repro.core.pipeline import MSToolchain

        cache = ArtifactCache(tmp_path / "cache")
        toolchain = MSToolchain(COMPOUNDS, axis=MzAxis(1.0, 50.0, 0.5))
        with pytest.raises(ValueError, match="seed"):
            toolchain.generate_training_data(_ms_simulator(), 20, cache=cache)
