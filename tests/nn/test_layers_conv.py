"""Unit + gradient tests for Conv1D and LocallyConnected1D."""

import numpy as np
import pytest

from repro.nn import Conv1D, LocallyConnected1D
from tests.nn.gradcheck import check_layer_gradients


def _naive_conv1d(x, w, b, stride):
    """Reference O(N*L*K*C*F) convolution for correctness checks."""
    n, length, channels = x.shape
    kernel, _, filters = w.shape
    out_length = (length - kernel) // stride + 1
    out = np.zeros((n, out_length, filters))
    for i in range(n):
        for l in range(out_length):
            window = x[i, l * stride : l * stride + kernel, :]
            for f in range(filters):
                out[i, l, f] = np.sum(window * w[:, :, f]) + b[f]
    return out


class TestConv1D:
    def test_output_shape_valid_padding(self):
        layer = Conv1D(25, 20, strides=3)
        layer.build((321, 25), np.random.default_rng(0))
        # Matches Table 1 row 4->5 arithmetic: (321-15)//2+1 etc.
        assert layer.output_shape == ((321 - 20) // 3 + 1, 25)

    def test_same_padding_output_length(self):
        layer = Conv1D(4, 5, strides=1, padding="same")
        layer.build((100, 2), np.random.default_rng(0))
        assert layer.output_shape == (100, 4)

    def test_same_padding_with_stride(self):
        layer = Conv1D(4, 5, strides=3, padding="same")
        layer.build((100, 2), np.random.default_rng(0))
        assert layer.output_shape == (34, 4)  # ceil(100/3)

    def test_forward_matches_naive_reference(self):
        layer = Conv1D(3, 4, strides=2, activation="linear")
        layer.build((15, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 15, 2))
        expected = _naive_conv1d(x, layer.params["W"], layer.params["b"], 2)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)

    def test_param_count_matches_keras_formula(self):
        layer = Conv1D(25, 20)
        layer.build((1000, 1), np.random.default_rng(0))
        assert layer.count_params() == 20 * 1 * 25 + 25  # 525, Table 1 layer 3

    def test_kernel_larger_than_input_raises(self):
        layer = Conv1D(2, 50)
        with pytest.raises(ValueError, match="does not fit"):
            layer.build((20, 1), np.random.default_rng(0))

    def test_invalid_padding_rejected(self):
        with pytest.raises(ValueError):
            Conv1D(2, 3, padding="full")

    @pytest.mark.parametrize("bad", [4.7, 0.5, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("arg", ["filters", "kernel_size", "strides"])
    def test_rejects_non_integral_sizes(self, arg, bad):
        kwargs = {"filters": 4, "kernel_size": 3, "strides": 1, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be a whole number"):
            Conv1D(**kwargs)

    def test_integral_floats_and_numpy_ints_accepted(self):
        layer = Conv1D(np.float64(4.0), np.int32(3), strides=2.0)
        sizes = (layer.filters, layer.kernel_size, layer.strides)
        assert sizes == (4, 3, 2) and all(type(v) is int for v in sizes)

    @pytest.mark.parametrize("arg", ["filters", "kernel_size", "strides"])
    def test_nonpositive_message_kept(self, arg):
        kwargs = {"filters": 4, "kernel_size": 3, "strides": 1, arg: -2}
        with pytest.raises(ValueError, match=f"{arg} must be positive, got -2"):
            Conv1D(**kwargs)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gradients_valid(self, stride):
        check_layer_gradients(
            Conv1D(3, 4, strides=stride, activation="selu"), (2, 12, 2), seed=10
        )

    def test_gradients_same_padding(self):
        check_layer_gradients(
            Conv1D(2, 5, strides=2, padding="same"), (2, 11, 3), seed=11
        )

    def test_gradients_softmax_activation(self):
        # Table 1 layer 6 uses softmax on a conv layer; check that path.
        check_layer_gradients(
            Conv1D(4, 3, strides=2, activation="softmax"), (2, 9, 2), seed=12
        )


class TestLocallyConnected1D:
    def test_paper_nmr_parameter_count(self):
        # LocallyConnected1D(4 filters, kernel 9, stride 9) over (1700, 1):
        # out_length = 188, params = 188*(9*4) + 188*4 = 7520.
        layer = LocallyConnected1D(4, 9, 9)
        layer.build((1700, 1), np.random.default_rng(0))
        assert layer.output_shape == (188, 4)
        assert layer.count_params() == 7520

    def test_weights_are_unshared(self):
        layer = LocallyConnected1D(2, 3, 3)
        layer.build((9, 1), np.random.default_rng(0))
        assert layer.params["W"].shape == (3, 3, 2)  # (out_L, K*C, F)
        assert layer.params["b"].shape == (3, 2)

    def test_forward_matches_per_position_matmul(self):
        layer = LocallyConnected1D(2, 3, 2, activation="linear")
        layer.build((9, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 9, 2))
        y = layer.forward(x)
        for l in range(layer.output_shape[0]):
            window = x[:, 2 * l : 2 * l + 3, :].reshape(3, -1)
            expected = window @ layer.params["W"][l] + layer.params["b"][l]
            np.testing.assert_allclose(y[:, l, :], expected, atol=1e-12)

    def test_differs_from_shared_conv(self):
        # With unshared weights, identical windows at different positions
        # should map to different outputs (in general).
        layer = LocallyConnected1D(1, 2, 2, activation="linear")
        layer.build((4, 1), np.random.default_rng(3))
        x = np.tile(np.array([1.0, 2.0]), 2).reshape(1, 4, 1)
        y = layer.forward(x)
        assert not np.allclose(y[0, 0], y[0, 1])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gradients(self, stride):
        check_layer_gradients(
            LocallyConnected1D(2, 3, strides=stride, activation="tanh"),
            (2, 10, 2),
            seed=13,
        )

    def test_rejects_nonpositive_filters(self):
        with pytest.raises(ValueError):
            LocallyConnected1D(0, 3)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("arg", ["filters", "kernel_size", "strides"])
    def test_rejects_non_integral_sizes(self, arg, bad):
        kwargs = {"filters": 4, "kernel_size": 3, "strides": 1, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be a whole number"):
            LocallyConnected1D(**kwargs)
