"""Layer activations live only from a training forward to its backward.

``forward(training=True)`` caches what ``backward`` reads and ``backward``
releases it; ``forward(training=False)`` stores nothing.  So a trained or
serving model holds its weights and gradients, not its last batch, and
concurrent predictions on one model share no layer state.
"""

import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.core import nmr_conv_topology, table1_topology


def _held_arrays(layer):
    """id -> nbytes of every ndarray ``layer`` holds outside params/grads."""
    held = {}
    stack = [v for k, v in vars(layer).items() if k not in ("params", "grads")]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            held[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return held


def _every_cached_layer():
    return nn.Sequential([
        nn.Reshape((-1, 1)),
        nn.Conv1D(4, 3, padding="same", activation="relu"),
        nn.MaxPool1D(2),
        nn.LocallyConnected1D(3, 2, strides=2),
        nn.AvgPool1D(2),
        nn.ActivationLayer("tanh"),
        nn.Flatten(),
        nn.ResidualDense(activation="tanh"),
        nn.HighwayDense(activation="tanh"),
        nn.Dropout(0.2, seed=0),
        nn.Dense(3),
    ]).build((32,), seed=0)


def _recurrent():
    return nn.Sequential([
        nn.Reshape((4, 8)),
        nn.LSTM(5, return_sequences=True),
        nn.Conv1D(2, 2),
        nn.GlobalAvgPool1D(),
        nn.Dense(3),
    ]).build((32,), seed=0)


MODELS = {
    "table1": lambda: table1_topology(4).build((246,), seed=0),
    "nmr_conv": lambda: nmr_conv_topology().build((270,), seed=0),
    "every_cached_layer": _every_cached_layer,
    "recurrent": _recurrent,
}


class TestNothingRetained:
    """Only what build() allocated stays on a layer."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_after_train_on_batch_and_predict(self, name):
        model = MODELS[name]()
        model.compile(nn.Adam(0.003), "mse")
        built = [set(_held_arrays(layer)) for layer in model.layers]
        rng = np.random.default_rng(1)
        length = model.input_shape[0]
        outputs = model.layers[-1].output_shape[-1]
        model.train_on_batch(rng.random((16, length)), rng.random((16, outputs)))
        for layer, before in zip(model.layers, built):
            assert set(_held_arrays(layer)) <= before, layer.name
            assert layer._cache is None, layer.name
        model.predict(rng.random((23, length)), batch_size=8)
        for layer, before in zip(model.layers, built):
            assert set(_held_arrays(layer)) <= before, layer.name
            assert layer._cache is None, layer.name


LAYERS = [
    (name, index)
    for name in ("every_cached_layer", "recurrent")
    for index in range(len(MODELS[name]().layers))
]


class TestBackwardNeedsATrainingForward:
    @pytest.mark.parametrize("name,index", LAYERS)
    def test_inference_forward_then_backward_names_the_layer(self, name, index):
        model = MODELS[name]()
        x = np.random.default_rng(2).random((3, 32))
        for layer in model.layers[:index]:
            x = layer.forward(x, training=True)
        layer = model.layers[index]
        y = layer.forward(x)
        if isinstance(layer, nn.Dropout):
            # Identity at inference, so its backward is the identity too.
            np.testing.assert_array_equal(layer.backward(y), y)
            return
        with pytest.raises(RuntimeError, match=layer.name):
            layer.backward(np.ones_like(y))

    def test_backward_consumes_the_cache(self):
        layer = nn.Dense(3)
        layer.build((4,), np.random.default_rng(0))
        x = np.random.default_rng(1).random((2, 4))
        layer.forward(x, training=True)
        layer.backward(np.ones((2, 3)))
        with pytest.raises(RuntimeError, match="Dense"):
            layer.backward(np.ones((2, 3)))


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestTrainingBytesArePinned:
    """Releasing caches moves no bit: weights after two seeded epochs, and
    the predictions of the trained model, captured while every layer kept
    its last activations (numpy 2.4, OpenBLAS, x86-64)."""

    PINNED = {
        "table1": (
            lambda: table1_topology(4), 246,
            "a11df573199a92e1e7ccde43707df638e2f8dce903c9e5e8156bc6cfc2af4a3d",
            "4a25acec9c9e9020e81aadb17b87ffe18be3c43976d1b1d1684b82b2605dcaa7",
        ),
        "nmr_conv": (
            nmr_conv_topology, 1700,
            "258e157bd40e23549c405cec12e6c5e5fc7462d9d61aac2bc986f3257a0b675f",
            "a09be648e8425a858ab23ef1e98a272cb0381cd8a9cf591bd4d7f85df29b336e",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_two_seeded_epochs(self, name):
        topology, length, weights_sha, predict_sha = self.PINNED[name]
        rng = np.random.default_rng(0)
        x = rng.random((96, length))
        y = rng.dirichlet(np.ones(4), size=96)
        model = topology().build((length,), seed=0)
        model.compile(nn.Adam(0.003), "mse")
        model.fit(x, y, epochs=2, batch_size=32, seed=0)
        assert _digest(model.get_weights()) == weights_sha
        assert _digest([model.predict(x)]) == predict_sha


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakIsOneIm2col:
    """The Table-1 CNN on the 491-point axis peaks near its largest im2col.

    The advanced-index gather laid its im2col out as (out_L, K, N, C), so
    the GEMM's reshape copied it a second time: predict(103) peaked at
    2.3x its 62.2 MB im2col (143.9 MB) and train_on_batch(64) at 100.3 MB.
    """

    @pytest.fixture(scope="class")
    def model(self):
        model = table1_topology(4).build((491,), seed=0)
        model.compile(nn.Adam(0.003), "mae")
        return model

    def test_predict(self, model):
        x = np.random.default_rng(4).random((103, 491))
        largest = max(
            x.shape[0] * layer.output_shape[0] * layer.kernel_size
            * layer.input_shape[1] * 8
            for layer in model.layers if isinstance(layer, nn.Conv1D)
        )
        assert largest == 62_212_000
        assert _traced_peak(lambda: model.predict(x)) <= 1.4 * largest

    def test_train_on_batch(self, model):
        rng = np.random.default_rng(5)
        x, y = rng.random((64, 491)), rng.dirichlet(np.ones(4), size=64)
        assert _traced_peak(lambda: model.train_on_batch(x, y)) < 90e6


class TestConcurrentPredict:
    def test_four_threads_match_serial_bytes(self):
        model = table1_topology(4).build((246,), seed=0)
        rng = np.random.default_rng(3)
        batches = [rng.random((size, 246)) for size in (1, 7, 33, 64)]
        serial = [model.predict(x).tobytes() for x in batches]
        rounds = 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    (i, pool.submit(model.predict, batches[i]))
                    for _ in range(rounds) for i in range(len(batches))
                ]
                results = [(i, future.result(timeout=60)) for i, future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == rounds * len(batches)
        for i, out in results:
            assert out.tobytes() == serial[i]
