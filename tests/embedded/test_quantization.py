"""Unit tests for int8 post-training quantization."""

import numpy as np

from repro import nn
from repro.embedded.quantization import quantize_tensor
from repro.inference import InferenceEngine, freeze


def _trained_model(seed=0):
    model = nn.Sequential(
        [nn.Reshape((-1, 1)), nn.Conv1D(4, 5, strides=2, activation="selu"),
         nn.Flatten(), nn.Dense(3, activation="softmax")]
    )
    model.build((40,), seed=seed)
    model.compile(nn.Adam(0.01), "mae")
    rng = np.random.default_rng(seed)
    x = rng.random((128, 40))
    y = rng.dirichlet(np.ones(3), size=128)
    model.fit(x, y, epochs=3, batch_size=32, seed=seed)
    return model, x


def _worst_tensor_error(model, plan):
    """Max int8 rounding error of a plan's weights, relative to each peak."""
    weights = [layer.params["W"] for layer in model.layers if "W" in layer.params]
    quantized = [op for op in plan.ops if op.qweight is not None]
    worst = 0.0
    for weight, op in zip(weights, quantized):
        dequantized = op.qweight.astype(np.float64) * op.qscale
        error = np.max(np.abs(weight.reshape(op.qweight.shape) - dequantized))
        worst = max(worst, float(error) / float(np.max(np.abs(weight))))
    return worst


class TestTensorQuantization:
    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(20, 10))
        quantized, scale = quantize_tensor(weight)
        dequantized = quantized.astype(np.float64) * scale
        assert np.max(np.abs(weight - dequantized)) <= scale / 2 + 1e-12

    def test_zero_tensor_records_zero_scale(self):
        # Regression: an all-zero tensor must record scale = 0.0
        # explicitly, not a fictitious 1.0 dynamic range.
        quantized, scale = quantize_tensor(np.zeros((3, 3)))
        assert np.all(quantized == 0)
        assert scale == 0.0
        np.testing.assert_array_equal(
            quantized.astype(np.float64) * scale, np.zeros((3, 3))
        )

    def test_int8_range_respected(self):
        weight = np.array([-10.0, 10.0, 0.1])
        quantized, _ = quantize_tensor(weight)
        assert quantized.dtype == np.int8
        assert quantized.max() == 127 and quantized.min() == -127

    def test_scale_preserves_extremes(self):
        weight = np.array([-2.0, 0.5, 2.0])
        quantized, scale = quantize_tensor(weight)
        np.testing.assert_allclose(quantized[[0, 2]] * scale, [-2.0, 2.0])


class TestPerChannelQuantization:
    def test_scale_shape_follows_last_axis(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(5, 3, 8))
        quantized, scale = quantize_tensor(weight, per_channel=True)
        assert quantized.dtype == np.int8
        assert np.shape(scale) == (8,)

    def test_one_d_tensor_stays_per_tensor(self):
        quantized, scale = quantize_tensor(np.array([1.0, -4.0]), per_channel=True)
        assert isinstance(scale, float)
        assert quantized.min() == -127

    def test_per_channel_never_worse_than_per_tensor(self):
        # One saturated column should not inflate everyone's step size.
        rng = np.random.default_rng(2)
        weight = rng.normal(size=(20, 6))
        weight[:, 0] *= 100.0

        def roundtrip_error(per_channel):
            quantized, scale = quantize_tensor(weight, per_channel=per_channel)
            return np.max(np.abs(weight - quantized.astype(np.float64) * scale))

        assert roundtrip_error(True) < roundtrip_error(False)

    def test_dead_channel_records_zero_scale(self):
        # Regression: a zero channel must carry scale 0.0, and its
        # neighbours must quantize against their own dynamic range.
        weight = np.array([[0.0, 2.0], [0.0, -1.0]])
        quantized, scale = quantize_tensor(weight, per_channel=True)
        np.testing.assert_allclose(scale, [0.0, 2.0 / 127])
        assert np.all(quantized[:, 0] == 0)
        np.testing.assert_allclose(
            quantized[:, 1].astype(np.float64) * scale[1], [2.0, -1.0],
            atol=scale[1] / 2,
        )

    def test_quantized_model_per_channel_report(self):
        model, x = _trained_model()
        per_tensor = freeze(model, dtype="int8", calibration=x[:32])
        per_channel = freeze(
            model, dtype="int8", per_channel=True, calibration=x[:32]
        )
        # Weight-level error shrinks (smaller per-channel steps); output
        # MAE stays within the same budget either way.
        assert _worst_tensor_error(model, per_channel) <= (
            _worst_tensor_error(model, per_tensor) + 1e-12
        )
        assert per_tensor.calibration["mae_delta"] < 0.02
        assert per_channel.calibration["mae_delta"] < 0.02
        # Per-channel pays a few extra scale floats, nothing more.
        assert per_channel.weight_bytes >= per_tensor.weight_bytes
        assert freeze(model).weight_bytes > 3.0 * per_channel.weight_bytes


class TestInt8Plan:
    def test_prediction_close_to_float_model(self):
        model, x = _trained_model()
        int8_pred = InferenceEngine(freeze(model, dtype="int8")).predict(x)
        assert np.max(np.abs(model.predict(x) - int8_pred)) < 0.05

    def test_report_metrics(self):
        model, x = _trained_model()
        float32 = freeze(model)
        int8 = freeze(model, dtype="int8", calibration=x[:32])
        assert float32.weight_bytes == 4 * model.count_params()
        assert int8.weight_bytes < float32.weight_bytes
        assert float32.weight_bytes > 3.5 * int8.weight_bytes
        assert 0 <= _worst_tensor_error(model, int8) <= 0.01  # <= half an int8 step
        assert int8.calibration["mae_delta"] < 0.02

    def test_quantization_is_deterministic(self):
        model, x = _trained_model()
        a = InferenceEngine(freeze(model, dtype="int8")).predict(x)
        b = InferenceEngine(freeze(model, dtype="int8")).predict(x)
        assert a.tobytes() == b.tobytes()
