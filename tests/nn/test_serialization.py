"""Unit tests for model save/load."""

import io
import json

import numpy as np
import pytest

from repro import nn
from repro.nn.serialization import model_from_dict, model_to_dict
from repro.storage.integrity import CorruptArtifactError, wrap


def _model():
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(3, 5, strides=2, activation="selu"),
            nn.MaxPool1D(2),
            nn.Flatten(),
            nn.Dense(4, activation="softmax"),
        ],
        name="roundtrip",
    )
    model.build((30,), seed=3)
    return model


class TestDictRoundtrip:
    def test_architecture_preserved(self):
        original = _model()
        rebuilt = model_from_dict(model_to_dict(original))
        assert rebuilt.count_params() == original.count_params()
        assert [l.name for l in rebuilt.layers] == [l.name for l in original.layers]
        assert rebuilt.input_shape == original.input_shape

    def test_unbuilt_model_rejected(self):
        with pytest.raises(ValueError, match="built"):
            model_to_dict(nn.Sequential([nn.Dense(2)]))

    def test_unknown_layer_class_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            model_from_dict(
                {"input_shape": [4], "layers": [{"class": "Quantum", "config": {}}]}
            )

    def test_missing_input_shape_rejected(self):
        with pytest.raises(ValueError, match="input_shape"):
            model_from_dict({"layers": []})


class TestFileRoundtrip:
    def test_predictions_identical_after_reload(self, tmp_path):
        original = _model()
        x = np.random.default_rng(0).random((6, 30))
        expected = original.predict(x)
        path = nn.save_model(original, tmp_path / "model")
        assert path.endswith(".npz")
        reloaded = nn.load_model(path)
        np.testing.assert_allclose(reloaded.predict(x), expected, atol=1e-15)

    def test_lstm_roundtrip(self, tmp_path):
        model = nn.Sequential([nn.LSTM(6), nn.Dense(2)])
        model.build((4, 5), seed=0)
        x = np.random.default_rng(1).normal(size=(3, 4, 5))
        path = nn.save_model(model, tmp_path / "lstm.npz")
        np.testing.assert_allclose(nn.load_model(path).predict(x), model.predict(x))

    def test_locally_connected_roundtrip(self, tmp_path):
        model = nn.Sequential(
            [nn.Reshape((-1, 1)), nn.LocallyConnected1D(2, 3, 3), nn.Flatten(), nn.Dense(2)]
        )
        model.build((12,), seed=0)
        x = np.random.default_rng(2).random((4, 12))
        path = nn.save_model(model, tmp_path / "lc.npz")
        np.testing.assert_allclose(nn.load_model(path).predict(x), model.predict(x))

    def test_reloaded_model_is_trainable(self, tmp_path):
        model = _model()
        path = nn.save_model(model, tmp_path / "m.npz")
        reloaded = nn.load_model(path).compile("adam", "mae")
        rng = np.random.default_rng(3)
        x = rng.random((16, 30))
        y = rng.dirichlet(np.ones(4), size=16)
        loss = reloaded.train_on_batch(x, y)
        assert np.isfinite(loss)


def _write_parent_layout(path, model, state, optimizer):
    """A model file as older writers laid it out, inlined: separate uint8
    JSON arrays next to the weights, a writer state, and an optimizer's
    config and slots."""

    def json_array(payload):
        blob = json.dumps(payload, default=float).encode("utf-8")
        return np.frombuffer(blob, dtype=np.uint8)

    arrays = {
        "__config__": json_array(model.get_config()),
        "__state__": json_array(state),
    }
    for i, weight in enumerate(model.get_weights()):
        arrays[f"w{i:04d}"] = weight
    opt_state = optimizer.get_state()
    arrays["__optimizer__"] = json_array(
        {"config": optimizer.get_config(),
         "iterations": opt_state["iterations"]}
    )
    for slot, entries in opt_state["slots"].items():
        for (layer, param), value in entries.items():
            arrays[f"opt:{slot}:{layer}:{param}"] = value
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    path.write_bytes(wrap(buffer.getvalue()))


class TestParentLayout:
    def test_load_model_reads_a_parent_layout_file_with_an_optimizer(
        self, tmp_path
    ):
        model = nn.Sequential([nn.Dense(8, activation="relu"), nn.Dense(3)])
        model.build((10,), seed=0)
        model.compile(nn.Adam(0.01), "mse")
        rng = np.random.default_rng(0)
        model.fit(rng.random((64, 10)), rng.random((64, 3)), epochs=2,
                  batch_size=16, seed=0)
        path = tmp_path / "net.gen-000001.ckpt"
        _write_parent_layout(
            path, model, {"epoch": 2, "metrics": {"loss": 0.125}},
            model.optimizer,
        )
        reloaded = nn.load_model(path)
        assert len(reloaded.get_weights()) == len(model.get_weights())
        for a, b in zip(model.get_weights(), reloaded.get_weights()):
            assert a.tobytes() == b.tobytes()
        x = rng.random((4, 10))
        assert reloaded.predict(x).tobytes() == model.predict(x).tobytes()


class TestOneModelFile:
    def test_damaged_model_file_refused(self, tmp_path):
        path = nn.save_model(_model(), tmp_path / "model.npz")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            nn.load_model(path)


class TestCrashSafeSave:
    """save_model must be atomic: a crash mid-write never leaves a partial
    or corrupt file at the target path."""

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        import repro.nn.serialization as serialization

        model = _model()
        path = nn.save_model(model, tmp_path / "model.npz")
        original_bytes = open(path, "rb").read()

        def partial_write_then_die(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(serialization.np, "savez", partial_write_then_die)
        with pytest.raises(OSError, match="disk full"):
            nn.save_model(model, path)

        assert open(path, "rb").read() == original_bytes
        reloaded = nn.load_model(path)
        x = np.random.default_rng(0).random((4, 30))
        np.testing.assert_allclose(reloaded.predict(x), model.predict(x))

    def test_failed_save_leaves_no_files_behind(self, tmp_path, monkeypatch):
        import repro.nn.serialization as serialization

        def die(handle, **arrays):
            raise OSError("disk full")

        monkeypatch.setattr(serialization.np, "savez", die)
        with pytest.raises(OSError):
            nn.save_model(_model(), tmp_path / "fresh.npz")
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_no_temp_files(self, tmp_path):
        nn.save_model(_model(), tmp_path / "model.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
