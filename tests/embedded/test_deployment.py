"""Unit tests for embedded model export: the frozen plan is the artifact."""

import json
import os
import threading

import numpy as np
import pytest

from repro import nn
from repro.embedded.cost_model import InferenceCostModel
from repro.embedded.deployment import export_for_embedded
from repro.embedded.platforms import TABLE2_PLATFORMS
from repro.inference import (
    InferenceEngine,
    UnsupportedLayerError,
    freeze,
    load_plan,
    verify_plan,
)


def _model():
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="selu"),
            nn.Flatten(),
            nn.Dense(3, activation="softmax"),
        ]
    )
    model.build((40,), seed=0)
    return model


def _manifest(paths):
    with open(paths["manifest"], encoding="utf-8") as handle:
        return json.load(handle)


class TestDeployedPlan:
    def test_requires_built_model(self, tmp_path):
        with pytest.raises(ValueError, match="built"):
            export_for_embedded(nn.Sequential([nn.Dense(2)]), tmp_path / "pkg")

    def test_float32_predictions_close_to_float64(self):
        x = np.random.default_rng(0).random((16, 40))
        plan = freeze(_model(), calibration=x)
        assert plan.calibration["mae_delta"] < 1e-5

    def test_manifest_prices_every_platform_from_the_plan(self, tmp_path):
        model = _model()
        paths = export_for_embedded(model, tmp_path / "pkg", dataset_size=1000)
        rows = _manifest(paths)["evaluation"]["platforms"]
        assert set(rows) == {"nano_cpu", "nano_gpu", "tx2_cpu", "tx2_gpu"}
        plan = freeze(model)
        for key, spec in TABLE2_PLATFORMS.items():
            estimate = InferenceCostModel(spec).estimate_plan(plan, 1000, 128)
            assert estimate.execution_time_s > 0
            assert rows[key] == estimate.row()

    def test_calibrated_freeze_leaves_weights_bit_equal(self):
        """Freezing never touches the model, even while it serves."""
        model = _model()
        x = np.random.default_rng(1).random((64, 40))
        before = [w.copy() for w in model.get_weights()]
        serial = model.predict(x).tobytes()
        outputs = []
        stop = threading.Event()

        def serve():
            while not stop.is_set() or not outputs:
                outputs.append(model.predict(x).tobytes())

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            for _ in range(20):
                for dtype in ("float32", "int8"):
                    freeze(model, dtype=dtype, calibration=x)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert outputs and all(out == serial for out in outputs)
        for a, b in zip(before, model.get_weights()):
            assert a.tobytes() == b.tobytes()


class TestExport:
    def test_export_writes_weights_and_manifest(self, tmp_path):
        model = _model()
        paths = export_for_embedded(model, tmp_path / "pkg", dataset_size=1000)
        # The frozen plan is the package; no float64 checkpoint ships.
        assert sorted(os.listdir(tmp_path / "pkg")) == ["manifest.json", "model.plan"]
        manifest = _manifest(paths)
        assert manifest["parameters"] == model.count_params()
        assert manifest["flops_per_sample"] > 0
        assert manifest["evaluation"]["dataset_size"] == 1000
        # Both byte counts are the artifacts' own, biases included.
        assert manifest["weight_bytes_float32"] == freeze(model).weight_bytes
        assert manifest["weight_bytes_int8"] == (
            freeze(model, dtype="int8").weight_bytes
        )

    def test_exported_weights_reload_and_predict(self, tmp_path):
        model = _model()
        paths = export_for_embedded(model, tmp_path / "pkg")
        x = np.random.default_rng(2).random((4, 40))
        reloaded = InferenceEngine(load_plan(paths["plan"])).predict(x)
        frozen = InferenceEngine(freeze(model)).predict(x)
        assert reloaded.tobytes() == frozen.tobytes()

    def test_exported_plan_verifies(self, tmp_path):
        paths = export_for_embedded(_model(), tmp_path / "pkg")
        report = verify_plan(paths["plan"])
        assert report["ok"] and report["dtype"] == "float32"

    def test_model_without_fused_kernel_rejected(self, tmp_path):
        model = nn.Sequential([nn.Reshape((-1, 1)), nn.LSTM(4), nn.Dense(2)])
        model.build((12,), seed=0)
        with pytest.raises(UnsupportedLayerError, match="reference path"):
            export_for_embedded(model, tmp_path / "pkg")
        assert not (tmp_path / "pkg").exists()
