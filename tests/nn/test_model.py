"""Unit tests for the Sequential container."""

import numpy as np
import pytest

from repro import nn


def _small_model(outputs=3, input_len=20):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="selu"),
            nn.Flatten(),
            nn.Dense(outputs, activation="softmax"),
        ]
    )
    model.build((input_len,), seed=0)
    model.compile("adam", "mae")
    return model


class TestConstruction:
    def test_build_propagates_shapes(self):
        model = _small_model()
        assert model.layers[0].output_shape == (20, 1)
        assert model.layers[1].output_shape == (8, 4)
        assert model.layers[2].output_shape == (32,)
        assert model.layers[3].output_shape == (3,)

    def test_table1_structure(self):
        """Table 1 of the paper, built at a 1000-point input resolution."""
        model = nn.Sequential(
            [
                nn.Reshape((-1, 1)),
                nn.Conv1D(25, 20, 1, activation="selu"),
                nn.Conv1D(25, 20, 3, activation="selu"),
                nn.Conv1D(25, 15, 2, activation="selu"),
                nn.Conv1D(15, 15, 4, activation="softmax"),
                nn.Flatten(),
                nn.Dense(14, activation="softmax"),
            ]
        )
        model.build((1000,))
        assert model.layers[1].output_shape == (981, 25)
        assert model.layers[2].output_shape == (321, 25)
        assert model.layers[3].output_shape == (154, 25)
        assert model.layers[4].output_shape == (35, 15)
        assert model.layers[6].output_shape == (14,)

    def test_add_after_build_raises(self):
        model = _small_model()
        with pytest.raises(RuntimeError):
            model.add(nn.Dense(2))

    def test_empty_model_build_raises(self):
        with pytest.raises(RuntimeError):
            nn.Sequential().build((10,))

    def test_add_non_layer_raises(self):
        with pytest.raises(TypeError):
            nn.Sequential().add("dense")

    def test_build_determinism(self):
        a = _small_model()
        b = _small_model()
        for wa, wb in zip(a.get_weights(), b.get_weights()):
            np.testing.assert_array_equal(wa, wb)


class TestExecution:
    def test_softmax_head_outputs_distributions(self):
        model = _small_model()
        x = np.random.default_rng(0).random((7, 20))
        y = model.predict(x)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_predict_batched_equals_single_pass(self):
        model = _small_model()
        x = np.random.default_rng(1).random((100, 20))
        np.testing.assert_allclose(
            model.predict(x, batch_size=16), model.predict(x, batch_size=1000)
        )

    def test_evaluate_matches_manual_loss(self):
        model = _small_model()
        rng = np.random.default_rng(2)
        x = rng.random((10, 20))
        y = rng.dirichlet(np.ones(3), size=10)
        manual = np.mean(np.abs(model.predict(x) - y))
        assert model.evaluate(x, y) == pytest.approx(manual)

    def test_fit_reduces_loss(self):
        model = _small_model()
        rng = np.random.default_rng(3)
        x = rng.random((128, 20))
        y = rng.dirichlet(np.ones(3), size=128)
        before = model.evaluate(x, y)
        model.fit(x, y, epochs=15, batch_size=16, seed=0)
        assert model.evaluate(x, y) < before

    def test_train_on_batch_returns_loss(self):
        model = _small_model()
        rng = np.random.default_rng(4)
        x = rng.random((8, 20))
        y = rng.dirichlet(np.ones(3), size=8)
        loss = model.train_on_batch(x, y)
        assert isinstance(loss, float) and loss > 0

    def test_forward_before_build_raises(self):
        model = nn.Sequential([nn.Dense(2)])
        with pytest.raises(RuntimeError, match="not built"):
            model.forward(np.zeros((1, 3)))

    def test_fit_before_compile_raises(self):
        model = nn.Sequential([nn.Dense(2)])
        model.build((3,))
        with pytest.raises(RuntimeError, match="not compiled"):
            model.fit(np.zeros((4, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("batch_size", [0, -1])
    @pytest.mark.parametrize("rows", [0, 7, 300])
    def test_predict_and_evaluate_refuse_batch_size_below_one(self, batch_size, rows):
        model = _small_model()
        rng = np.random.default_rng(5)
        x = rng.random((rows, 20))
        y = rng.dirichlet(np.ones(3), size=rows)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            model.predict(x, batch_size=batch_size)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            model.evaluate(x, y, batch_size=batch_size)

    @pytest.mark.parametrize("epochs", [2.5, float("nan")])
    def test_fit_refuses_a_non_whole_epoch_count(self, epochs):
        model = _small_model()
        with pytest.raises(ValueError, match="epochs must be a whole number"):
            model.fit(np.zeros((4, 20)), np.zeros((4, 3)), epochs=epochs)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fit_refuses_epochs_below_one(self, epochs):
        model = _small_model()
        with pytest.raises(ValueError, match=f"epochs must be positive, got {epochs}"):
            model.fit(np.zeros((4, 20)), np.zeros((4, 3)), epochs=epochs)


class TestWeights:
    def test_get_set_roundtrip(self):
        model = _small_model()
        weights = model.get_weights()
        x = np.random.default_rng(5).random((4, 20))
        y1 = model.predict(x)
        # Perturb then restore.
        model.set_weights([w + 1.0 for w in weights])
        assert not np.allclose(model.predict(x), y1)
        model.set_weights(weights)
        np.testing.assert_allclose(model.predict(x), y1)

    def test_set_weights_wrong_count_raises(self):
        model = _small_model()
        with pytest.raises(ValueError, match="weight arrays"):
            model.set_weights(model.get_weights()[:-1])

    def test_set_weights_wrong_shape_raises(self):
        model = _small_model()
        weights = model.get_weights()
        weights[0] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            model.set_weights(weights)


class TestIntrospection:
    def test_count_params(self):
        model = _small_model()
        expected = sum(l.count_params() for l in model.layers)
        assert model.count_params() == expected

    def test_summary_contains_every_layer(self):
        text = _small_model().summary()
        for name in ("Reshape", "Conv1D", "Flatten", "Dense", "Total params"):
            assert name in text

    def test_get_config_roundtrip_keys(self):
        config = _small_model().get_config()
        assert config["input_shape"] == [20]
        assert [entry["class"] for entry in config["layers"]] == [
            "Reshape",
            "Conv1D",
            "Flatten",
            "Dense",
        ]
