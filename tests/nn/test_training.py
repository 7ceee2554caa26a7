"""Unit tests for the training loop, History and callbacks."""

import numpy as np
import pytest

from repro import nn
from repro.nn.training import Callback, EarlyStopping, History


def _regression_model():
    model = nn.Sequential([nn.Dense(8, activation="tanh"), nn.Dense(1)])
    model.build((4,), seed=0)
    model.compile(nn.Adam(learning_rate=0.01), "mse")
    return model


def _data(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x.sum(axis=1, keepdims=True)) * 0.5
    return x, y


class TestHistory:
    def test_records_metrics(self):
        h = History()
        h.record(1, {"loss": 1.0})
        h.record(2, {"loss": 0.5, "val_loss": 0.7})
        assert h["loss"] == [1.0, 0.5]
        assert "val_loss" in h
        assert h.epochs == [1, 2]

    def test_best_min(self):
        h = History()
        for epoch, v in enumerate([3.0, 1.0, 2.0], start=1):
            h.record(epoch, {"val_loss": v})
        assert h.best("val_loss") == (2, 1.0)

    def test_best_max_mode(self):
        h = History()
        for epoch, v in enumerate([0.1, 0.9, 0.5], start=1):
            h.record(epoch, {"r2": v})
        assert h.best("r2", mode="max") == (2, 0.9)

    def test_best_missing_metric_raises(self):
        with pytest.raises(KeyError):
            History().best("val_loss")

    def test_best_rejects_unknown_mode(self):
        h = History()
        h.record(1, {"val_loss": 1.0})
        with pytest.raises(ValueError, match="mode"):
            h.best("val_loss", mode="mni")


class TestFitLoop:
    def test_history_contains_losses_and_timing(self):
        model = _regression_model()
        x, y = _data()
        h = model.fit(x, y, epochs=3, batch_size=32, validation_data=(x, y))
        assert len(h["loss"]) == 3
        assert len(h["val_loss"]) == 3
        assert all(t > 0 for t in h["epoch_seconds"])

    def test_seeded_shuffling_is_reproducible(self):
        x, y = _data()
        h1 = _regression_model().fit(x, y, epochs=3, batch_size=16, seed=7)
        h2 = _regression_model().fit(x, y, epochs=3, batch_size=16, seed=7)
        np.testing.assert_allclose(h1["loss"], h2["loss"])

    def test_no_shuffle_differs_from_shuffle(self):
        x, y = _data()
        h1 = _regression_model().fit(x, y, epochs=2, batch_size=16, shuffle=False)
        h2 = _regression_model().fit(x, y, epochs=2, batch_size=16, seed=1)
        assert not np.allclose(h1["loss"], h2["loss"])

    def test_input_validation(self):
        model = _regression_model()
        x, y = _data()
        with pytest.raises(ValueError, match="epochs"):
            model.fit(x, y, epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            model.fit(x, y, batch_size=0)
        with pytest.raises(ValueError, match="samples"):
            model.fit(x, y[:10])
        with pytest.raises(ValueError, match="empty"):
            model.fit(x[:0], y[:0])

    def test_learns_linear_map(self):
        model = _regression_model()
        x, y = _data(256)
        model.fit(x, y, epochs=60, batch_size=32, seed=0)
        assert model.evaluate(x, y) < 0.01

    def test_verbose_fit_prints(self, capsys):
        model = _regression_model()
        x, y = _data(32)
        model.fit(x, y, epochs=2, batch_size=16, verbose=True)
        output = capsys.readouterr().out
        assert "epoch    1/2" in output


class TestEarlyStopping:
    def test_stops_when_no_improvement(self):
        model = _regression_model()
        x, y = _data()
        # Monitor a metric that barely moves with tiny lr -> stops early.
        model.compile(nn.Adam(learning_rate=1e-12), "mse")
        es = EarlyStopping(monitor="val_loss", patience=2, min_delta=1e-3)
        h = model.fit(
            x, y, epochs=50, batch_size=32, validation_data=(x, y), callbacks=[es]
        )
        assert len(h["loss"]) < 50

    def test_restore_best_weights(self):
        model = _regression_model()
        x, y = _data()
        es = EarlyStopping(patience=100, restore_best_weights=True)
        model.fit(x, y, epochs=10, batch_size=32, validation_data=(x, y),
                  callbacks=[es], seed=0)
        # After restoration, evaluate() equals the best recorded val_loss.
        assert model.evaluate(x, y) == pytest.approx(es.best_value, rel=1e-9)

    def test_missing_monitor_is_ignored(self):
        model = _regression_model()
        x, y = _data()
        es = EarlyStopping(monitor="val_loss", patience=0)
        h = model.fit(x, y, epochs=3, batch_size=32, callbacks=[es])  # no val
        assert len(h["loss"]) == 3

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=-1)


class TestCustomCallback:
    def test_hooks_fire_in_order(self):
        events = []

        class Recorder(Callback):
            def on_train_begin(self):
                events.append("begin")

            def on_epoch_begin(self, epoch):
                events.append(f"e{epoch}b")

            def on_epoch_end(self, epoch, metrics):
                events.append(f"e{epoch}e")

            def on_train_end(self):
                events.append("end")

        model = _regression_model()
        x, y = _data(32)
        model.fit(x, y, epochs=2, batch_size=16, callbacks=[Recorder()])
        assert events == ["begin", "e1b", "e1e", "e2b", "e2e", "end"]
