"""Unit tests for activation functions and their derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import activations as act
from tests.nn.gradcheck import numeric_grad


ALL_ACTIVATIONS = [act.linear, act.relu, act.selu, act.sigmoid, act.tanh, act.softmax]


class TestForward:
    def test_linear_is_identity(self):
        x = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(act.linear.forward(x), x)

    def test_relu_clamps_negatives(self):
        x = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        np.testing.assert_array_equal(
            act.relu.forward(x), [0.0, 0.0, 0.0, 0.1, 2.0]
        )

    def test_selu_positive_branch_is_scaled_identity(self):
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(act.selu.forward(x), 1.0507009873554805 * x)

    def test_selu_negative_saturation(self):
        # As x -> -inf, selu -> -scale*alpha ~= -1.7581
        value = act.selu.forward(np.array([-50.0]))[0]
        assert value == pytest.approx(-1.7580993408473766, rel=1e-6)

    def test_selu_mean_variance_preserving(self):
        # The self-normalizing property: unit-Gaussian input stays roughly
        # zero-mean/unit-variance through the activation.
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, size=200_000)
        y = act.selu.forward(x)
        assert abs(y.mean()) < 0.02
        assert abs(y.std() - 1.0) < 0.02

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-10, 10, 101)
        y = act.sigmoid.forward(x)
        assert np.all((y > 0) & (y < 1))
        np.testing.assert_allclose(y + y[::-1], 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        y = act.sigmoid.forward(np.array([-1000.0, 1000.0]))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-12)

    def test_softmax_sums_to_one_along_last_axis(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 7, 5))
        y = act.softmax.forward(x)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y > 0)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            act.softmax.forward(x), act.softmax.forward(x + 100.0), atol=1e-12
        )

    def test_softmax_handles_large_logits(self):
        y = act.softmax.forward(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(y).all()
        assert y[0, 0] == pytest.approx(1.0)


class TestBackward:
    @pytest.mark.parametrize("activation", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_gradient_matches_numeric(self, activation):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5))
        # Keep ReLU away from its kink for stable finite differences.
        if activation.name == "relu":
            x = x + np.sign(x) * 0.1
        upstream = rng.normal(size=x.shape)

        def loss():
            return float(np.sum(activation.forward(x) * upstream))

        y = activation.forward(x)
        analytic = activation.backward(upstream, x, y)
        numeric = numeric_grad(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-5)


class TestRegistry:
    def test_lookup_by_name(self):
        assert act.get_activation("selu") is act.selu
        assert act.get_activation("SELU") is act.selu

    def test_paper_figure5_aliases(self):
        # Fig. 5 of the paper abbreviates softmax as "sftm", linear as "lin".
        assert act.get_activation("sftm") is act.softmax
        assert act.get_activation("lin") is act.linear

    def test_none_means_linear(self):
        assert act.get_activation(None) is act.linear

    def test_instance_passthrough(self):
        assert act.get_activation(act.relu) is act.relu

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            act.get_activation("swish")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            act.get_activation(3.14)


# The two-branch SELU that the in-place kernel replaced, kept as the byte
# reference.
def _selu_where(x):
    return act._SELU_SCALE * np.where(
        x > 0.0, x, act._SELU_ALPHA * np.expm1(np.minimum(x, 0.0))
    )


def _selu_where_backward(grad, x, y):
    deriv = np.where(x > 0.0, act._SELU_SCALE, y + act._SELU_SCALE * act._SELU_ALPHA)
    return grad * deriv


def _edge_values(dtype):
    info = np.finfo(dtype)
    values = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
        info.smallest_subnormal, -info.smallest_subnormal,
        info.smallest_normal, -info.smallest_normal,
        info.smallest_normal / 3, -info.smallest_normal / 3,
        info.max, -info.max, info.eps, -info.eps, 1.0, -1.0, 1e-8, -1e-8,
    ]
    return np.array(values, dtype=dtype)


def _assert_selu_bytes(x, grad):
    with np.errstate(all="ignore"):
        y, ref_y = act.selu.forward(x), _selu_where(x)
        dx = act.selu.backward(grad, x, y)
        ref_dx = _selu_where_backward(grad, x, ref_y)
    assert y.dtype == ref_y.dtype and dx.dtype == ref_dx.dtype
    assert y.tobytes() == ref_y.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()


class TestSELUBytes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_edge_values(self, dtype):
        x = _edge_values(dtype)
        # Every input against every upstream gradient, NaN and signed
        # zeros included.
        xs, grads = np.meshgrid(x, x, indexing="ij")
        _assert_selu_bytes(xs, grads)

    def test_signed_zero_inputs_give_positive_zero(self):
        y = act.selu.forward(np.array([0.0, -0.0]))
        assert not np.signbit(y).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_table1_sized_batch(self, dtype):
        rng = np.random.default_rng(0)
        x = (3.0 * rng.standard_normal((8, 481, 25))).astype(dtype)
        x[:, ::7] = -0.0
        grad = rng.standard_normal(x.shape).astype(dtype)
        _assert_selu_bytes(x, grad)

    def test_input_is_not_written(self):
        x = np.array([-1.0, 0.0, 2.0])
        act.selu.forward(x)
        np.testing.assert_array_equal(x, [-1.0, 0.0, 2.0])

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_any_floats(self, data):
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        shape = data.draw(hnp.array_shapes(max_dims=3, max_side=6))
        x = data.draw(hnp.arrays(dtype, shape))
        grad = data.draw(hnp.arrays(dtype, shape))
        _assert_selu_bytes(x, grad)

