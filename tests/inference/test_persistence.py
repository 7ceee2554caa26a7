"""Plan persistence: envelope round-trips, corruption, introspection."""

import numpy as np
import pytest

from repro import nn
from repro.inference import (
    PLAN_FORMAT_VERSION,
    InferenceEngine,
    freeze,
    inspect_plan,
    load_plan,
    save_plan,
    verify_plan,
)
from repro.storage.integrity import (
    CorruptArtifactError,
    read_archive,
    write_archive,
)


def _model(input_length=40):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="selu"),
            nn.Flatten(),
            nn.Dense(3, activation="softmax"),
        ]
    )
    model.build((input_length,), seed=0)
    return model


@pytest.fixture(scope="module")
def model():
    return _model()


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).random((8, 40))


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float32", "int8"])
    def test_outputs_identical_after_reload(self, model, x, tmp_path, dtype):
        plan = freeze(model, dtype=dtype)
        path = tmp_path / f"plan_{dtype}.plan"
        save_plan(plan, path)
        loaded = load_plan(path)
        np.testing.assert_array_equal(
            InferenceEngine(loaded).predict(x), InferenceEngine(plan).predict(x)
        )

    def test_metadata_survives(self, model, x, tmp_path):
        plan = freeze(
            model, dtype="int8", per_channel=True, calibration=x, contract=1e-2
        )
        path = tmp_path / "meta.plan"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.dtype == "int8"
        assert loaded.per_channel is True
        assert loaded.contract == 1e-2
        assert loaded.calibration == plan.calibration
        assert loaded.source_layers == plan.source_layers
        assert [op.meta() for op in loaded.ops] == [
            op.meta() for op in plan.ops
        ]

    def test_int8_artifact_is_smaller(self, model, tmp_path):
        f32_path = tmp_path / "f32.plan"
        int8_path = tmp_path / "int8.plan"
        save_plan(freeze(model), f32_path)
        save_plan(freeze(model, dtype="int8"), int8_path)
        # Weight payload shrinks 4x; float32 biases, scales and the meta
        # dilute the whole-file ratio, but the int8 artifact is smaller.
        assert int8_path.stat().st_size < f32_path.stat().st_size

    def test_loaded_arrays_are_readonly(self, model, tmp_path):
        path = tmp_path / "ro.plan"
        save_plan(freeze(model), path)
        for op in load_plan(path).ops:
            if op.weight is not None:
                assert not op.weight.flags.writeable


class TestCorruption:
    def test_bit_flip_detected(self, model, tmp_path):
        path = tmp_path / "flip.plan"
        save_plan(freeze(model), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            load_plan(path)
        with pytest.raises(CorruptArtifactError):
            verify_plan(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path / "nope.plan")

    @staticmethod
    def _resave_with_meta(path, edit):
        """Re-save a saved plan after ``edit`` changes its meta."""
        arrays, docs = read_archive(path)
        edit(docs["meta"])
        write_archive(path, arrays, docs, fsync=False)

    def test_other_format_refused_naming_both_versions(self, model, tmp_path):
        path = tmp_path / "v1.plan"
        save_plan(freeze(model), path)
        self._resave_with_meta(path, lambda meta: meta.update(format=1))
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_plan(path)
        assert "plan format 1" in str(excinfo.value)
        assert f"version {PLAN_FORMAT_VERSION}" in str(excinfo.value)
        assert PLAN_FORMAT_VERSION == 2

    def test_hand_edited_geometry_refused(self, model, tmp_path):
        path = tmp_path / "geometry.plan"
        save_plan(freeze(model), path)

        def widen_stride(meta):
            conv = next(op for op in meta["ops"] if op["kind"] == "conv1d")
            conv["stride"] += 1  # too few windows to fill out_shape

        self._resave_with_meta(path, widen_stride)
        with pytest.raises(CorruptArtifactError, match="windows over"):
            load_plan(path)


class TestIntrospection:
    def test_verify_reports_ok(self, model, tmp_path):
        path = tmp_path / "ok.plan"
        plan = freeze(model, dtype="int8")
        save_plan(plan, path)
        report = verify_plan(path)
        assert report["ok"] is True
        assert report["dtype"] == "int8"
        assert report["fused_op_count"] == plan.fused_op_count
        assert report["weight_bytes"] == plan.weight_bytes

    def test_inspect_summarizes_without_execution_weights(
        self, model, tmp_path
    ):
        path = tmp_path / "inspect.plan"
        save_plan(freeze(model), path)
        info = inspect_plan(path)
        assert info["dtype"] == "float32"
        assert info["fused_op_count"] == 2
        assert info["tensor_bytes"] > 0
        assert info["file_bytes"] == path.stat().st_size
        assert all("kind" in op for op in info["ops"])
