"""Round-trip serialization coverage for every registered layer type."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import LAYER_REGISTRY


def _model_for(layer_name):
    """A small built model containing the given layer type."""
    rng_shape_seed = 0
    if layer_name == "Dense":
        model = nn.Sequential([nn.Dense(3, activation="selu")])
        shape = (6,)
    elif layer_name == "Conv1D":
        model = nn.Sequential([nn.Conv1D(2, 3, strides=2, activation="relu")])
        shape = (12, 2)
    elif layer_name == "LocallyConnected1D":
        model = nn.Sequential([nn.LocallyConnected1D(2, 3, strides=3)])
        shape = (12, 1)
    elif layer_name == "LSTM":
        model = nn.Sequential([nn.LSTM(4, return_sequences=True)])
        shape = (5, 3)
    elif layer_name == "MaxPool1D":
        model = nn.Sequential([nn.MaxPool1D(2)])
        shape = (8, 2)
    elif layer_name == "AvgPool1D":
        model = nn.Sequential([nn.AvgPool1D(2, strides=1)])
        shape = (8, 2)
    elif layer_name == "GlobalAvgPool1D":
        model = nn.Sequential([nn.GlobalAvgPool1D()])
        shape = (8, 2)
    elif layer_name == "Flatten":
        model = nn.Sequential([nn.Flatten()])
        shape = (4, 3)
    elif layer_name == "Reshape":
        model = nn.Sequential([nn.Reshape((3, 4))])
        shape = (12,)
    elif layer_name == "ActivationLayer":
        model = nn.Sequential([nn.ActivationLayer("softmax")])
        shape = (5,)
    elif layer_name == "HighwayDense":
        model = nn.Sequential([nn.HighwayDense("tanh", transform_bias=-1.0)])
        shape = (6,)
    elif layer_name == "ResidualDense":
        model = nn.Sequential([nn.ResidualDense("relu")])
        shape = (6,)
    else:
        pytest.skip(f"no case for {layer_name}")
    model.build(shape, seed=rng_shape_seed)
    return model, shape


@pytest.mark.parametrize("layer_name", sorted(LAYER_REGISTRY))
def test_every_layer_roundtrips_through_npz(layer_name, tmp_path):
    model, shape = _model_for(layer_name)
    x = np.random.default_rng(1).normal(size=(4,) + shape)
    expected = model.predict(x)
    path = nn.save_model(model, tmp_path / f"{layer_name}.npz")
    reloaded = nn.load_model(path)
    np.testing.assert_allclose(reloaded.predict(x), expected, atol=1e-14)


@pytest.mark.parametrize("layer_name", sorted(LAYER_REGISTRY))
def test_every_layer_config_is_json_compatible(layer_name):
    import json

    model, _ = _model_for(layer_name)
    config = model.get_config()
    rebuilt = json.loads(json.dumps(config))
    assert rebuilt["layers"][0]["class"] == layer_name
