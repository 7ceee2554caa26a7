"""Unit tests for plan compilation: fusion, quantization, immutability."""

import numpy as np
import pytest

from repro import nn
from repro.inference import (
    DEFAULT_CONTRACTS,
    InferenceEngine,
    UnsupportedLayerError,
    freeze,
)


def _mlp(input_length=10):
    model = nn.Sequential(
        [nn.Dense(8, activation="relu"), nn.Dense(3, activation="softmax")]
    )
    model.build((input_length,), seed=0)
    return model


def _cnn(input_length=40):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="relu"),
            nn.MaxPool1D(2),
            nn.Flatten(),
            nn.Dense(3, activation="softmax"),
        ]
    )
    model.build((input_length,), seed=0)
    return model


class TestFreezeStructure:
    def test_unbuilt_model_rejected(self):
        with pytest.raises(ValueError, match="built"):
            freeze(nn.Sequential([nn.Dense(2)]))

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            freeze(_mlp(), dtype="float16")

    def test_dense_bias_activation_fuse_into_one_op(self):
        plan = freeze(_mlp())
        assert [op.kind for op in plan.ops] == ["dense", "dense"]
        assert plan.ops[0].activation == "relu"
        assert plan.ops[1].activation == "softmax"
        assert plan.fused_op_count == 2
        assert plan.source_layers == ("Dense", "Dense")

    def test_standalone_activation_folds_into_linear_producer(self):
        model = nn.Sequential(
            [nn.Dense(8), nn.ActivationLayer("relu"), nn.Dense(3)]
        )
        model.build((10,), seed=0)
        plan = freeze(model)
        assert [op.kind for op in plan.ops] == ["dense", "dense"]
        assert plan.ops[0].activation == "relu"
        assert "+relu" in plan.ops[0].name

    def test_activation_behind_nonlinear_producer_stays_standalone(self):
        model = nn.Sequential(
            [nn.Dense(8, activation="tanh"), nn.ActivationLayer("relu"),
             nn.Dense(3)]
        )
        model.build((10,), seed=0)
        plan = freeze(model)
        assert [op.kind for op in plan.ops] == ["dense", "activation", "dense"]

    def test_view_runs_collapse(self):
        model = nn.Sequential(
            [nn.Reshape((-1, 1)), nn.Flatten(), nn.Dense(3)]
        )
        model.build((10,), seed=0)
        plan = freeze(model)
        views = [op for op in plan.ops if op.is_view]
        assert len(views) == 1
        assert "+" in views[0].name  # the collapsed run keeps both names
        assert views[0].in_shape == (10,) and views[0].out_shape == (10,)
        assert plan.fused_op_count == 1  # views launch nothing

    def test_conv_plan_carries_precomputed_windows(self):
        plan = freeze(_cnn())
        conv = next(op for op in plan.ops if op.kind == "conv1d")
        assert (conv.kernel, conv.stride) == (5, 2)
        pool = next(op for op in plan.ops if op.kind == "maxpool")
        assert (pool.kernel, pool.stride) == (2, 2)
        dense = next(op for op in plan.ops if op.kind == "dense")
        assert (dense.kernel, dense.stride) == (0, 0)

    def test_unsupported_layer_raises_typed_error(self):
        model = nn.Sequential([nn.Reshape((-1, 1)), nn.LSTM(4), nn.Dense(2)])
        model.build((12,), seed=0)
        with pytest.raises(UnsupportedLayerError) as excinfo:
            freeze(model)
        assert excinfo.value.position == 1
        assert "reference path" in str(excinfo.value)


class TestPlanImmutability:
    def test_arrays_are_readonly(self):
        plan = freeze(_cnn())
        for op in plan.ops:
            for tensor in (op.weight, op.bias):
                if tensor is not None:
                    assert not tensor.flags.writeable

    def test_frozen_dataclass(self):
        plan = freeze(_mlp())
        with pytest.raises(AttributeError):
            plan.dtype = "int8"


class TestContracts:
    def test_default_contracts_pinned_per_dtype(self):
        assert freeze(_mlp()).contract == DEFAULT_CONTRACTS["float32"] == 1e-5
        assert (
            freeze(_mlp(), dtype="int8").contract
            == DEFAULT_CONTRACTS["int8"]
            == 2e-2
        )

    def test_contract_override(self):
        assert freeze(_mlp(), contract=1e-3).contract == 1e-3

    def test_calibration_recorded_within_contract(self):
        model = _mlp()
        rng = np.random.default_rng(0)
        plan = freeze(model, calibration=rng.random((16, 10)))
        assert plan.calibration["n_samples"] == 16
        assert plan.calibration["mae_delta"] <= plan.contract
        assert plan.calibration["max_abs_delta"] >= plan.calibration["mae_delta"]

    @pytest.mark.parametrize("dtype", ["float32", "int8"])
    def test_calibration_is_the_engines_verify_report(self, dtype):
        model = _cnn()
        x = np.random.default_rng(1).random((16, 40))
        plan = freeze(model, dtype=dtype, calibration=x)
        report = InferenceEngine(plan).verify_against(model, x)
        assert plan.calibration == {
            key: report[key] for key in ("n_samples", "mae_delta", "max_abs_delta")
        }


class TestQuantizedPlans:
    def test_int8_payload_present(self):
        plan = freeze(_cnn(), dtype="int8")
        for op in plan.ops:
            if op.kind in ("dense", "conv1d"):
                assert op.qweight is not None and op.qweight.dtype == np.int8
                assert op.qscale is not None
                # Execution weight is the dequantized float32 payload.
                np.testing.assert_allclose(
                    op.weight,
                    (op.qweight.astype(np.float64) * op.qscale).astype(
                        np.float32
                    ),
                )

    def test_float32_plan_has_no_quantized_payload(self):
        plan = freeze(_cnn())
        assert all(op.qweight is None for op in plan.ops)

    def test_per_channel_scale_shapes(self):
        plan = freeze(_mlp(), dtype="int8", per_channel=True)
        assert plan.per_channel is True
        first, second = (op for op in plan.ops if op.kind == "dense")
        assert first.qscale.shape == (8,)  # one scale per output unit
        assert second.qscale.shape == (3,)

    def test_per_tensor_scale_is_scalar_array(self):
        plan = freeze(_mlp(), dtype="int8")
        assert plan.per_channel is False
        for op in plan.ops:
            assert op.qscale.shape == (1,)

    def test_per_channel_ignored_on_float32(self):
        assert freeze(_mlp(), per_channel=True).per_channel is False

    def test_zero_weight_tensor_records_zero_scale(self):
        # Regression: dead tensors pin scale 0.0, not a fictitious range.
        model = _mlp()
        weights = model.get_weights()
        weights[0] = np.zeros_like(weights[0])
        model.set_weights(weights)
        plan = freeze(model, dtype="int8")
        first = next(op for op in plan.ops if op.kind == "dense")
        assert float(first.qscale[0]) == 0.0
        assert np.all(first.weight == 0.0)

    def test_int8_weight_bytes_shrink(self):
        f32 = freeze(_cnn())
        int8 = freeze(_cnn(), dtype="int8")
        assert int8.weight_bytes < f32.weight_bytes
        # int8 payload = 1 byte/weight + 4/scale vs 4 bytes/weight.
        assert int8.weight_bytes < 0.5 * f32.weight_bytes


class TestIntrospection:
    def test_summary_is_json_friendly(self):
        import json

        plan = freeze(_cnn(), dtype="int8", per_channel=True)
        summary = plan.summary()
        json.dumps(summary)  # must not raise
        assert summary["dtype"] == "int8"
        assert summary["fused_op_count"] == plan.fused_op_count
        assert summary["weight_bytes"] == plan.weight_bytes
        assert len(summary["ops"]) == len(plan.ops)

    def test_describe_renders_table(self):
        text = freeze(_cnn()).describe()
        assert "InferencePlan" in text
        assert "fused ops from" in text
        assert "contract MAE" in text
