"""Unit tests for checkpoint save/load, generations and verify-on-load."""

import io
import json
import os

import numpy as np
import pytest

from repro import nn
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.storage_faults import bit_flip_file, truncate_file
from repro.storage.integrity import CorruptArtifactError, write_envelope


def _compiled_model(seed=0):
    model = nn.Sequential([nn.Dense(8, activation="relu"), nn.Dense(3)])
    model.build((10,), seed=seed)
    model.compile(nn.Adam(0.01), "mse")
    return model


def _data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 10)), rng.random((n, 3))


class TestCheckpointManager:
    def test_round_trip_model_and_state(self, tmp_path):
        model = _compiled_model()
        manager = CheckpointManager(tmp_path)
        manager.save("ck", model, state={"epoch": 7, "metrics": {"loss": 0.5}})
        data = manager.load("ck")
        assert data.state["epoch"] == 7
        assert data.state["metrics"]["loss"] == 0.5
        for a, b in zip(model.get_weights(), data.model.get_weights()):
            assert np.array_equal(a, b)

    def test_round_trip_optimizer_state(self, tmp_path):
        model = _compiled_model()
        x, y = _data()
        model.fit(x, y, epochs=2, batch_size=16, seed=0)
        manager = CheckpointManager(tmp_path)
        manager.save("ck", model, optimizer=model.optimizer)
        data = manager.load("ck")
        assert data.optimizer is not None
        assert data.optimizer.iterations == model.optimizer.iterations
        original = model.optimizer.get_state()["slots"]
        restored = data.optimizer.get_state()["slots"]
        assert set(original) == set(restored)
        for slot in original:
            assert set(original[slot]) == set(restored[slot])
            for key in original[slot]:
                assert np.array_equal(original[slot][key], restored[slot][key])

    def test_no_optimizer_loads_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("ck", _compiled_model())
        assert manager.load("ck").optimizer is None

    def test_names_exists_delete(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.names() == []
        manager.save("a", _compiled_model())
        manager.save("b", _compiled_model())
        assert manager.names() == ["a", "b"]
        assert manager.exists("a")
        manager.delete("a")
        assert not manager.exists("a")
        manager.delete("a")  # idempotent

    def test_invalid_names_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ValueError):
            manager.path("")
        with pytest.raises(ValueError):
            manager.path(f"evil{os.sep}name")


class TestGenerations:
    def test_each_save_is_a_new_generation(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        model = _compiled_model()
        manager.save("ck", model, state={"epoch": 1})
        manager.save("ck", model, state={"epoch": 2})
        assert manager.generations_of("ck") == [1, 2]
        assert manager.load("ck").state["epoch"] == 2
        assert manager.load("ck").generation == 2

    def test_retention_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path, generations=2)
        model = _compiled_model()
        for epoch in range(5):
            manager.save("ck", model, state={"epoch": epoch})
        assert manager.generations_of("ck") == [4, 5]
        assert manager.load("ck").state["epoch"] == 4

    def test_generations_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, generations=0)

    def test_delete_removes_all_generations(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        model = _compiled_model()
        manager.save("ck", model)
        manager.save("ck", model)
        manager.delete("ck")
        assert not manager.exists("ck")
        assert manager.generations_of("ck") == []

    def test_bare_npz_is_not_a_checkpoint(self, tmp_path):
        np.savez(tmp_path / "old.npz", w0000=np.zeros(3))
        manager = CheckpointManager(tmp_path)
        assert not manager.exists("old")
        assert manager.names() == []
        with pytest.raises(FileNotFoundError):
            manager.load("old")


def _write_parent_layout(path, model, state, optimizer):
    """The checkpoint encoding written before the shared archive codec,
    inlined: separate uint8 JSON arrays next to the weights and slots."""

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
    write_envelope(path, buffer.getvalue())


class TestParentLayout:
    def test_parent_written_generation_loads_bit_equal(self, tmp_path):
        model = _compiled_model()
        x, y = _data()
        model.fit(x, y, epochs=2, batch_size=16, seed=0)
        state = {"epoch": 2, "metrics": {"loss": 0.125}}
        manager = CheckpointManager(tmp_path)
        _write_parent_layout(
            manager._generation_path("ck", 1), model, state, model.optimizer
        )

        data = manager.load("ck")
        assert data.generation == 1
        assert data.state == state
        for a, b in zip(model.get_weights(), data.model.get_weights()):
            assert a.tobytes() == b.tobytes()
        assert data.optimizer.iterations == model.optimizer.iterations
        original = model.optimizer.get_state()["slots"]
        restored = data.optimizer.get_state()["slots"]
        assert set(original) == set(restored)
        for slot in original:
            assert set(original[slot]) == set(restored[slot])
            for key, value in original[slot].items():
                assert value.tobytes() == restored[slot][key].tobytes()
        reloaded = nn.load_model(manager.path("ck"))
        for a, b in zip(model.get_weights(), reloaded.get_weights()):
            assert a.tobytes() == b.tobytes()


class TestVerifyOnLoad:
    def test_bit_flip_falls_back_to_previous_generation(self, tmp_path):
        events = []
        manager = CheckpointManager(
            tmp_path, on_event=lambda kind, detail: events.append((kind, detail))
        )
        model = _compiled_model()
        manager.save("ck", model, state={"epoch": 1})
        newest = manager.save("ck", model, state={"epoch": 2})
        bit_flip_file(newest, seed=1)

        data = manager.load("ck")
        assert data.state["epoch"] == 1
        assert data.fell_back is True
        assert data.generation == 1
        kinds = [kind for kind, _ in events]
        assert kinds == ["quarantine", "fallback"]
        # The corrupt file was moved aside, never deleted.
        assert manager.quarantined() == [os.path.basename(newest)]
        assert not os.path.exists(newest)

    def test_truncation_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        model = _compiled_model()
        manager.save("ck", model, state={"epoch": 1})
        newest = manager.save("ck", model, state={"epoch": 2})
        truncate_file(newest, 40)
        assert manager.load("ck").state["epoch"] == 1

    def test_all_generations_corrupt_raises_typed_error(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        model = _compiled_model()
        for epoch in range(2):
            manager.save("ck", model, state={"epoch": epoch})
        for generation in manager.generations_of("ck"):
            bit_flip_file(
                manager._generation_path("ck", generation), seed=generation
            )
        with pytest.raises(CorruptArtifactError, match="no verifiable"):
            manager.load("ck")
        assert len(manager.quarantined()) == 2

    def test_missing_checkpoint_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path).load("nothing")

    def test_quarantine_name_collisions_get_suffixes(self, tmp_path):
        manager = CheckpointManager(tmp_path, generations=1)
        model = _compiled_model()
        for round_ in range(2):
            path = manager.save("ck", model)
            # Same generation number each round (retention pruned to 1,
            # then the sole survivor quarantined below).
            truncate_file(path, 10)
            with pytest.raises(CorruptArtifactError):
                manager.load("ck")
        assert len(manager.quarantined()) == 2
