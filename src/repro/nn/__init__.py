"""A compact, from-scratch NumPy deep-learning framework.

This subpackage replaces the TensorFlow/Keras dependency of the paper with a
self-contained implementation that covers every architectural element the
paper uses:

* layers: ``Dense``, ``Conv1D``, ``LocallyConnected1D``, ``LSTM``,
  ``MaxPool1D``, ``AvgPool1D``, ``Flatten``, ``Reshape`` and standalone
  ``Activation`` layers;
* activations: ReLU, SELU, softmax, linear, sigmoid, tanh;
* losses: mean absolute error (the paper's training loss) and mean squared
  error (the paper's NMR comparison metric);
* optimizer: Adam;
* a Keras-like :class:`Sequential` container with ``fit``/``predict``,
  callbacks, serialization and per-layer FLOP counting (used by the
  embedded-platform cost model of Table 2).

All arrays are ``float64`` NumPy arrays; batch axis first.  Conv/pool layers
use channels-last layout ``(batch, length, channels)``.
"""

from repro.nn.activations import (
    Activation,
    get_activation,
    linear,
    relu,
    selu,
    sigmoid,
    softmax,
    tanh,
)
from repro.nn.initializers import (
    Constant,
    GlorotUniform,
    HeNormal,
    Initializer,
    LeCunNormal,
    Orthogonal,
    Zeros,
    get_initializer,
)
from repro.nn.layers import (
    ActivationLayer,
    AvgPool1D,
    Conv1D,
    Dense,
    Flatten,
    GlobalAvgPool1D,
    HighwayDense,
    Layer,
    LocallyConnected1D,
    LSTM,
    MaxPool1D,
    Reshape,
    ResidualDense,
)
from repro.nn.losses import Loss, MeanAbsoluteError, MeanSquaredError, get_loss
from repro.nn.metrics import (
    mean_absolute_error,
    mean_squared_error,
    per_output_mae,
    r2_score,
    root_mean_squared_error,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, Optimizer, get_optimizer
from repro.nn.serialization import load_model, save_model
from repro.nn.sentinel import DivergenceError, DivergenceSentinel, SentinelEvent
from repro.nn.training import Callback, EarlyStopping, History
from repro.nn.flops import count_model_flops, layer_flops

__all__ = [
    "Activation",
    "ActivationLayer",
    "Adam",
    "AvgPool1D",
    "Callback",
    "Constant",
    "Conv1D",
    "Dense",
    "DivergenceError",
    "DivergenceSentinel",
    "EarlyStopping",
    "Flatten",
    "GlobalAvgPool1D",
    "GlorotUniform",
    "HeNormal",
    "HighwayDense",
    "History",
    "Initializer",
    "LSTM",
    "Layer",
    "LeCunNormal",
    "LocallyConnected1D",
    "Loss",
    "MaxPool1D",
    "MeanAbsoluteError",
    "MeanSquaredError",
    "Optimizer",
    "Orthogonal",
    "Reshape",
    "ResidualDense",
    "SentinelEvent",
    "Sequential",
    "Zeros",
    "count_model_flops",
    "get_activation",
    "get_initializer",
    "get_loss",
    "get_optimizer",
    "layer_flops",
    "linear",
    "load_model",
    "mean_absolute_error",
    "mean_squared_error",
    "per_output_mae",
    "r2_score",
    "relu",
    "root_mean_squared_error",
    "save_model",
    "selu",
    "sigmoid",
    "softmax",
    "tanh",
]
