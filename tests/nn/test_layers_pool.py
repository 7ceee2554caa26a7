"""Unit + gradient tests for pooling layers."""

import numpy as np
import pytest

from repro.nn import AvgPool1D, GlobalAvgPool1D, MaxPool1D
from tests.nn.gradcheck import check_layer_gradients


class TestMaxPool1D:
    def test_forward_values(self):
        layer = MaxPool1D(pool_size=2)
        layer.build((6, 1), np.random.default_rng(0))
        x = np.array([1.0, 3.0, 2.0, 2.0, 5.0, 4.0]).reshape(1, 6, 1)
        np.testing.assert_array_equal(
            layer.forward(x).ravel(), [3.0, 2.0, 5.0]
        )

    def test_overlapping_strides(self):
        layer = MaxPool1D(pool_size=3, strides=1)
        layer.build((5, 1), np.random.default_rng(0))
        x = np.arange(5.0).reshape(1, 5, 1)
        np.testing.assert_array_equal(layer.forward(x).ravel(), [2.0, 3.0, 4.0])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool1D(pool_size=2)
        layer.build((4, 1), np.random.default_rng(0))
        x = np.array([1.0, 3.0, 5.0, 2.0]).reshape(1, 4, 1)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([10.0, 20.0]).reshape(1, 2, 1))
        np.testing.assert_array_equal(grad.ravel(), [0.0, 10.0, 20.0, 0.0])

    def test_tie_sends_gradient_to_first_max_only(self):
        layer = MaxPool1D(pool_size=2)
        layer.build((2, 1), np.random.default_rng(0))
        x = np.array([4.0, 4.0]).reshape(1, 2, 1)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 1)))
        np.testing.assert_array_equal(grad.ravel(), [1.0, 0.0])

    def test_gradients_numeric(self):
        check_layer_gradients(MaxPool1D(2), (2, 8, 3), seed=20)

    def test_pool_too_large_raises(self):
        layer = MaxPool1D(pool_size=10)
        with pytest.raises(ValueError):
            layer.build((5, 1), np.random.default_rng(0))

    @pytest.mark.parametrize("pool", [MaxPool1D, AvgPool1D])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("arg", ["pool_size", "strides"])
    def test_rejects_non_integral_sizes(self, pool, arg, bad):
        kwargs = {"pool_size": 2, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be a whole number"):
            pool(**kwargs)

    @pytest.mark.parametrize("arg", ["pool_size", "strides"])
    def test_nonpositive_message_kept(self, arg):
        kwargs = {"pool_size": 2, arg: 0}
        with pytest.raises(ValueError, match=f"{arg} must be positive, got 0"):
            MaxPool1D(**kwargs)

    def test_integral_float_sizes_accepted(self):
        layer = AvgPool1D(pool_size=3.0, strides=np.float64(2.0))
        assert (layer.pool_size, layer.strides) == (3, 2)
        assert type(layer.pool_size) is int and type(layer.strides) is int


class TestAvgPool1D:
    def test_forward_values(self):
        layer = AvgPool1D(pool_size=2)
        layer.build((4, 1), np.random.default_rng(0))
        x = np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 4, 1)
        np.testing.assert_array_equal(layer.forward(x).ravel(), [2.0, 6.0])

    def test_gradients_numeric(self):
        check_layer_gradients(AvgPool1D(3, strides=2), (2, 9, 2), seed=21)

    def test_backward_distributes_uniformly(self):
        layer = AvgPool1D(pool_size=2)
        layer.build((4, 1), np.random.default_rng(0))
        x = np.ones((1, 4, 1))
        layer.forward(x, training=True)
        grad = layer.backward(np.array([2.0, 4.0]).reshape(1, 2, 1))
        np.testing.assert_array_equal(grad.ravel(), [1.0, 1.0, 2.0, 2.0])


class TestGlobalAvgPool1D:
    def test_forward_is_mean_over_length(self):
        layer = GlobalAvgPool1D()
        layer.build((5, 2), np.random.default_rng(0))
        x = np.random.default_rng(0).normal(size=(3, 5, 2))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=1))

    def test_output_shape(self):
        layer = GlobalAvgPool1D()
        layer.build((100, 7), np.random.default_rng(0))
        assert layer.output_shape == (7,)

    def test_gradients_numeric(self):
        check_layer_gradients(GlobalAvgPool1D(), (2, 6, 3), seed=22)
