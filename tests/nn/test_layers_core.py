"""Unit + gradient tests for Dense, Flatten, Reshape, ActivationLayer."""

import numpy as np
import pytest

from repro.nn import (
    ActivationLayer,
    Dense,
    Flatten,
    Reshape,
)
from tests.nn.gradcheck import check_layer_gradients


class TestDense:
    def test_output_shape_and_params(self):
        layer = Dense(7)
        layer.build((12,), np.random.default_rng(0))
        assert layer.output_shape == (7,)
        assert layer.count_params() == 12 * 7 + 7

    def test_forward_matches_manual_matmul(self):
        layer = Dense(3, activation="linear")
        layer.build((4,), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 4))
        expected = x @ layer.params["W"] + layer.params["b"]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias_option(self):
        layer = Dense(3, use_bias=False)
        layer.build((4,), np.random.default_rng(0))
        assert "b" not in layer.params
        assert layer.count_params() == 12

    def test_3d_input_preserves_leading_axes(self):
        layer = Dense(6)
        layer.build((5, 4), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 5, 4))
        assert layer.forward(x).shape == (2, 5, 6)

    @pytest.mark.parametrize("activation", ["linear", "selu", "softmax", "tanh"])
    def test_gradients(self, activation):
        check_layer_gradients(Dense(5, activation=activation), (3, 8), seed=4)

    def test_gradients_3d_input(self):
        check_layer_gradients(Dense(3), (2, 4, 6), seed=5)

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            Dense(0)

    @pytest.mark.parametrize("bad", [4.7, float("nan"), float("inf")])
    def test_rejects_non_integral_units(self, bad):
        with pytest.raises(ValueError, match="units must be a whole number"):
            Dense(bad)

    def test_integral_float_units_accepted(self):
        layer = Dense(4.0)
        assert layer.units == 4 and type(layer.units) is int

    def test_unbuilt_forward_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            Dense(3).forward(np.zeros((1, 4)))


class TestFlatten:
    def test_shape(self):
        layer = Flatten()
        layer.build((7, 3), np.random.default_rng(0))
        assert layer.output_shape == (21,)
        x = np.arange(2 * 7 * 3, dtype=float).reshape(2, 7, 3)
        assert layer.forward(x).shape == (2, 21)

    def test_backward_restores_shape(self):
        layer = Flatten()
        layer.build((7, 3), np.random.default_rng(0))
        x = np.random.default_rng(0).normal(size=(2, 7, 3))
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((2, 21)))
        assert grad.shape == (2, 7, 3)

    def test_roundtrip_preserves_values(self):
        layer = Flatten()
        layer.build((4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 4, 2))
        y = layer.forward(x, training=True)
        np.testing.assert_array_equal(layer.backward(y), x)


class TestReshape:
    def test_explicit_shape(self):
        layer = Reshape((6, 2))
        layer.build((12,), np.random.default_rng(0))
        assert layer.output_shape == (6, 2)

    def test_inferred_axis(self):
        layer = Reshape((-1, 1))
        layer.build((100,), np.random.default_rng(0))
        assert layer.output_shape == (100, 1)

    def test_incompatible_shape_raises(self):
        layer = Reshape((5, 3))
        with pytest.raises(ValueError, match="cannot reshape"):
            layer.build((16,), np.random.default_rng(0))

    def test_two_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            Reshape((-1, -1))

    def test_forward_backward_roundtrip(self):
        layer = Reshape((3, 4))
        layer.build((12,), np.random.default_rng(0))
        x = np.random.default_rng(0).normal(size=(2, 12))
        y = layer.forward(x, training=True)
        assert y.shape == (2, 3, 4)
        np.testing.assert_array_equal(layer.backward(y), x)


class TestActivationLayer:
    def test_applies_activation(self):
        layer = ActivationLayer("relu")
        layer.build((4,), np.random.default_rng(0))
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 2.0, 0.0, 4.0]])

    def test_gradients_softmax(self):
        check_layer_gradients(ActivationLayer("softmax"), (4, 6), seed=7)

    def test_config_roundtrip(self):
        assert ActivationLayer("selu").get_config() == {"activation": "selu"}
