"""Neural-network layers (channels-last, batch-first)."""

from repro.nn.layers.base import Layer
from repro.nn.layers.core import ActivationLayer, Dense, Flatten, Reshape
from repro.nn.layers.conv import Conv1D, LocallyConnected1D
from repro.nn.layers.pool import AvgPool1D, GlobalAvgPool1D, MaxPool1D
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.composite import HighwayDense, ResidualDense

__all__ = [
    "ActivationLayer",
    "AvgPool1D",
    "Conv1D",
    "Dense",
    "Flatten",
    "GlobalAvgPool1D",
    "HighwayDense",
    "LSTM",
    "Layer",
    "LocallyConnected1D",
    "MaxPool1D",
    "Reshape",
    "ResidualDense",
]

LAYER_REGISTRY = {
    cls.__name__: cls
    for cls in (
        ActivationLayer,
        AvgPool1D,
        Conv1D,
        Dense,
        Flatten,
        GlobalAvgPool1D,
        HighwayDense,
        LSTM,
        LocallyConnected1D,
        MaxPool1D,
        Reshape,
        ResidualDense,
    )
}
