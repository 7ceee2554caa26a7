"""Unit tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import initializers as init


RNG = lambda: np.random.default_rng(0)  # noqa: E731


class TestBasic:
    def test_zeros(self):
        w = init.Zeros()((3, 4), RNG())
        assert w.shape == (3, 4)
        assert np.all(w == 0)

    def test_constant(self):
        w = init.Constant(2.5)((5,), RNG())
        assert np.all(w == 2.5)


class TestVarianceScaling:
    def test_glorot_uniform_limit(self):
        w = init.GlorotUniform()((100, 50), RNG())
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)

    def test_he_normal_std(self):
        w = init.HeNormal()((400, 400), RNG())
        assert w.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.05)

    def test_lecun_normal_std(self):
        w = init.LeCunNormal()((400, 400), RNG())
        assert w.std() == pytest.approx(np.sqrt(1.0 / 400), rel=0.05)

    def test_conv_kernel_fans_include_receptive_field(self):
        # kernel (K, C, F): fan_in = K*C. LeCun std should be sqrt(1/(K*C)).
        w = init.LeCunNormal()((9, 16, 64), RNG())
        assert w.std() == pytest.approx(np.sqrt(1.0 / (9 * 16)), rel=0.08)


class TestOrthogonal:
    def test_square_matrix_is_orthogonal(self):
        w = init.Orthogonal()((32, 32), RNG())
        np.testing.assert_allclose(w @ w.T, np.eye(32), atol=1e-10)

    def test_tall_matrix_has_orthonormal_columns(self):
        w = init.Orthogonal()((64, 16), RNG())
        np.testing.assert_allclose(w.T @ w, np.eye(16), atol=1e-10)

    def test_wide_matrix_has_orthonormal_rows(self):
        w = init.Orthogonal()((16, 64), RNG())
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-10)

    def test_gain_scales(self):
        w = init.Orthogonal(gain=3.0)((8, 8), RNG())
        np.testing.assert_allclose(w @ w.T, 9.0 * np.eye(8), atol=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            init.Orthogonal()((8,), RNG())


class TestRegistry:
    def test_by_name(self):
        assert isinstance(init.get_initializer("lecun_normal"), init.LeCunNormal)

    def test_by_config_dict(self):
        inst = init.get_initializer({"name": "constant", "value": 1.5})
        assert isinstance(inst, init.Constant)
        assert inst.value == 1.5

    def test_config_roundtrip(self):
        original = init.Orthogonal(gain=2.0)
        rebuilt = init.get_initializer(original.get_config())
        assert rebuilt.gain == 2.0

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            init.get_initializer("nope")

    def test_determinism_with_same_rng_seed(self):
        a = init.GlorotUniform()((10, 10), np.random.default_rng(42))
        b = init.GlorotUniform()((10, 10), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
