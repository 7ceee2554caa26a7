"""Unit + gradient tests for the LSTM layer."""

import numpy as np
import pytest

from repro.nn import LSTM, Dense, Sequential
from tests.nn.gradcheck import check_layer_gradients


class TestShapes:
    def test_last_state_output(self):
        layer = LSTM(8)
        layer.build((5, 3), np.random.default_rng(0))
        assert layer.output_shape == (8,)
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        assert layer.forward(x).shape == (2, 8)

    def test_return_sequences_output(self):
        layer = LSTM(8, return_sequences=True)
        layer.build((5, 3), np.random.default_rng(0))
        assert layer.output_shape == (5, 8)
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        assert layer.forward(x).shape == (2, 5, 8)

    def test_paper_parameter_count(self):
        # The paper's LSTM model: 32 units over 1700-point spectra plus a
        # Dense(4) head = 221,956 trainable parameters.
        model = Sequential([LSTM(32), Dense(4)])
        model.build((5, 1700))
        assert model.count_params() == 221_956

    def test_keras_param_formula(self):
        layer = LSTM(16)
        layer.build((3, 10), np.random.default_rng(0))
        assert layer.count_params() == 4 * (10 * 16 + 16 * 16 + 16)


class TestBehaviour:
    def test_unit_forget_bias_applied(self):
        layer = LSTM(4, unit_forget_bias=True)
        layer.build((2, 3), np.random.default_rng(0))
        np.testing.assert_array_equal(layer.params["b"][4:8], 1.0)
        np.testing.assert_array_equal(layer.params["b"][:4], 0.0)

    def test_output_bounded_by_tanh(self):
        layer = LSTM(6)
        layer.build((10, 4), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 10, size=(3, 10, 4))
        y = layer.forward(x)
        assert np.all(np.abs(y) < 1.0)

    def test_depends_on_earlier_timesteps(self):
        layer = LSTM(6)
        layer.build((4, 3), np.random.default_rng(0))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 3))
        y1 = layer.forward(x).copy()
        x2 = x.copy()
        x2[0, 0, :] += 1.0  # perturb the first timestep only
        y2 = layer.forward(x2)
        assert not np.allclose(y1, y2)

    def test_last_sequence_step_equals_state_output(self):
        rng = np.random.default_rng(3)
        seq = LSTM(5, return_sequences=True)
        last = LSTM(5, return_sequences=False)
        seq.build((6, 2), np.random.default_rng(7))
        last.build((6, 2), np.random.default_rng(7))
        x = rng.normal(size=(2, 6, 2))
        np.testing.assert_allclose(seq.forward(x)[:, -1, :], last.forward(x))


class TestGradients:
    def test_gradients_last_state(self):
        check_layer_gradients(LSTM(4), (2, 3, 2), seed=30, atol=1e-5, rtol=1e-3)

    def test_gradients_return_sequences(self):
        check_layer_gradients(
            LSTM(3, return_sequences=True), (2, 4, 2), seed=31, atol=1e-5, rtol=1e-3
        )

    def test_trainable_end_to_end(self):
        # An LSTM should learn to output the mean of its input sequence.
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(256, 5, 1))
        y = x.mean(axis=1)
        model = Sequential([LSTM(8), Dense(1)])
        model.build((5, 1), seed=0)
        model.compile("adam", "mse")
        before = model.evaluate(x, y)
        model.fit(x, y, epochs=30, batch_size=32, seed=0)
        after = model.evaluate(x, y)
        assert after < before * 0.2


class TestValidation:
    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            LSTM(0)

    @pytest.mark.parametrize("bad", [4.7, float("nan"), float("inf")])
    def test_rejects_non_integral_units(self, bad):
        with pytest.raises(ValueError, match="units must be a whole number"):
            LSTM(bad)

    def test_rejects_2d_input_shape(self):
        layer = LSTM(4)
        with pytest.raises(ValueError, match="timesteps"):
            layer.build((10,), np.random.default_rng(0))
