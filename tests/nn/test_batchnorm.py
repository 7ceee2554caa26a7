"""Unit + gradient tests for BatchNorm."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers.normalization import BatchNorm
from tests.nn.gradcheck import check_layer_gradients


class TestForward:
    def test_training_output_normalized(self):
        layer = BatchNorm()
        layer.build((6,), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(5.0, 3.0, size=(128, 6))
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_gamma_beta_affine(self):
        layer = BatchNorm()
        layer.build((3,), np.random.default_rng(0))
        layer.params["gamma"] = np.array([2.0, 2.0, 2.0])
        layer.params["beta"] = np.array([1.0, 1.0, 1.0])
        x = np.random.default_rng(2).normal(size=(64, 3))
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.mean(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 2.0, atol=2e-2)

    def test_running_stats_converge(self):
        layer = BatchNorm(momentum=0.5)
        layer.build((2,), np.random.default_rng(0))
        rng = np.random.default_rng(3)
        for _ in range(50):
            layer.forward(rng.normal(4.0, 2.0, size=(256, 2)), training=True)
        np.testing.assert_allclose(layer.running_mean, 4.0, atol=0.3)
        np.testing.assert_allclose(layer.running_var, 4.0, rtol=0.2)

    def test_inference_uses_running_stats(self):
        layer = BatchNorm(momentum=0.0)  # running stats = last batch
        layer.build((2,), np.random.default_rng(0))
        rng = np.random.default_rng(4)
        layer.forward(rng.normal(2.0, 1.0, size=(512, 2)), training=True)
        # A wildly different batch at inference is normalized by the
        # *running* statistics, not its own.
        x = np.full((4, 2), 2.0)
        y = layer.forward(x, training=False)
        np.testing.assert_allclose(y, 0.0, atol=0.1)

    def test_3d_conv_feature_maps(self):
        layer = BatchNorm()
        layer.build((10, 4), np.random.default_rng(0))
        x = np.random.default_rng(5).normal(3.0, 2.0, size=(16, 10, 4))
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNorm(momentum=1.0)
        with pytest.raises(ValueError):
            BatchNorm(epsilon=0.0)


class TestBackward:
    def test_gradients_training_mode(self):
        check_layer_gradients(BatchNorm(), (8, 5), seed=50,
                              atol=1e-5, rtol=1e-3)

    def test_gradients_3d_training_mode(self):
        check_layer_gradients(BatchNorm(), (4, 6, 3), seed=51,
                              atol=1e-5, rtol=1e-3)

    def test_inference_backward_is_elementwise(self):
        layer = BatchNorm()
        layer.build((3,), np.random.default_rng(0))
        layer.forward(np.random.default_rng(1).normal(size=(32, 3)),
                      training=True)
        layer.forward(np.zeros((4, 3)), training=False)
        grad = layer.backward(np.ones((4, 3)))
        assert grad.shape == (4, 3)


class TestInModel:
    def test_trains_in_sequential(self):
        model = nn.Sequential(
            [nn.Dense(16, activation="relu"), nn.BatchNorm(), nn.Dense(1)]
        )
        model.build((4,), seed=0)
        model.compile(nn.Adam(0.01), "mse")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 4))
        y = x.sum(axis=1, keepdims=True)
        history = model.fit(x, y, epochs=20, batch_size=32, seed=0)
        assert history["loss"][-1] < history["loss"][0] * 0.3

    def test_serialization_roundtrip(self, tmp_path):
        model = nn.Sequential([nn.Dense(4), nn.BatchNorm(), nn.Dense(2)])
        model.build((3,), seed=0)
        # Note: running statistics are not part of params; a freshly loaded
        # model starts from unit statistics (documented limitation).
        path = nn.save_model(model, tmp_path / "bn.npz")
        reloaded = nn.load_model(path)
        assert reloaded.count_params() == model.count_params()
