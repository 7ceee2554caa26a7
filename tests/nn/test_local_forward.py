"""LocallyConnected1D's forward keeps einsum's bytes, and its input contract.

With two or more filters the layer contracts a tap-major copy of the im2col,
``einsum("knl,kfl->fnl", taps, wt)``, instead of
``einsum("nlk,lkf->nlf", flat, W)``.  Both zero-fill each output element and
add its K*C products in k order, so the bytes agree, signed zeros included.
At one filter the layer still makes einsum's own call.

Also here: a zero-row batch flows through the windowed layers and Flatten,
and LocallyConnected1D refuses an input it was not built for.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.core import nmr_conv_topology, table1_topology
from repro.nn.layers.conv import LocallyConnected1D
from repro.nn.layers.windows import col2im, im2col
from repro.serving.batching import batch_analyzer_from_model

# (kernel, channels) for each K*C of the grid.
WINDOWS = {1: (1, 1), 2: (2, 1), 3: (3, 1), 9: (3, 3), 27: (9, 3)}


def _layer(out_length, kc, filters, stride, seed, use_bias=True):
    """A built layer and an input whose first window's products are all -0.0.

    The first window reads +0.0 and position 0's kernel is negative.  Its
    bias is -0.0, so the output keeps the sum's sign: einsum's zero-filled
    sum gives +0.0 + (-0.0) = +0.0, a sum started from the first product
    -0.0 + (-0.0) = -0.0.
    """
    kernel, channels = WINDOWS[kc]
    length = (out_length - 1) * stride + kernel
    layer = LocallyConnected1D(filters, kernel, strides=stride, use_bias=use_bias)
    layer.build((length, channels), np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    layer.params["W"][:] = rng.standard_normal(layer.params["W"].shape)
    layer.params["W"][0] = -np.abs(layer.params["W"][0])
    if use_bias:
        layer.params["b"][:] = rng.standard_normal(layer.params["b"].shape)
        layer.params["b"][0] = -0.0
    return layer, length, channels, kernel


def _input(layer, batch, length, channels, kernel, seed):
    x = np.random.default_rng(seed).standard_normal((batch, length, channels))
    x[:, :kernel, :] = 0.0
    return x


def _reference(layer, x):
    """Today's einsum on the layer's im2col, plus the bias."""
    out_length = layer.output_shape[0]
    flat = im2col(x, layer.kernel_size, layer.strides).reshape(
        x.shape[0], out_length, -1
    )
    z = np.einsum("nlk,lkf->nlf", flat, layer.params["W"])
    if layer.use_bias:
        z = z + layer.params["b"]
    return z, flat


# F = 1 makes einsum's own call, so it is in the grid as a check on the branch.
GRID = list(itertools.product([1, 2, 7, 188], [1, 2, 3, 9, 27], [1, 2, 3, 4, 25]))


@pytest.mark.parametrize("batch", [1, 2, 5, 17, 64])
def test_forward_bytes_equal_einsum(batch):
    for case, (out_length, kc, filters) in enumerate(GRID):
        stride = 1 + case % 3
        layer, length, channels, kernel = _layer(out_length, kc, filters, stride, case)
        x = _input(layer, batch, length, channels, kernel, seed=case)
        got = layer.forward(x)
        want, _ = _reference(layer, x)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), (batch, out_length, kc, filters)
        # Every product of position 0 is -0.0; einsum's sum is +0.0.
        assert np.all(got[:, 0, :] == 0.0) and not np.signbit(got[:, 0, :]).any()


def test_all_negative_zero_products_sum_to_positive_zero_without_bias():
    layer, length, channels, kernel = _layer(7, 9, 4, 3, seed=3, use_bias=False)
    x = _input(layer, 5, length, channels, kernel, seed=3)
    got = layer.forward(x)
    assert got.tobytes() == _reference(layer, x)[0].tobytes()
    assert np.all(got[:, 0, :] == 0.0) and not np.signbit(got[:, 0, :]).any()


@pytest.mark.parametrize("kc,stride", [(9, 9), (27, 2)])
def test_training_forward_and_backward(kc, stride):
    """A training forward keeps the im2col for backward: the gradients are
    the einsum expressions' bytes."""
    layer, length, channels, kernel = _layer(188, kc, 4, stride, seed=kc)
    x = _input(layer, 64, length, channels, kernel, seed=kc)
    y = layer.forward(x, training=True)
    want, flat = _reference(layer, x)
    assert y.tobytes() == want.tobytes()
    dz = np.random.default_rng(9).standard_normal(y.shape)
    dx = layer.backward(dz)
    assert layer.grads["W"].tobytes() == np.einsum("nlk,nlf->lkf", flat, dz).tobytes()
    assert layer.grads["b"].tobytes() == dz.sum(axis=0).tobytes()
    dflat = np.einsum("nlf,lkf->nlk", dz, layer.params["W"])
    want_dx = col2im(dflat.reshape(64, 188, kernel, channels), length, stride)
    assert dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize(
    "topology,length",
    [(lambda: table1_topology(4), 246), (nmr_conv_topology, 1700)],
    ids=["table1", "nmr_conv"],
)
def test_zero_row_batch_answers_like_the_frozen_analyzer(topology, length):
    model = topology().build((length,), seed=0)
    empty = np.empty((0, length))
    frozen = batch_analyzer_from_model(model, frozen="float32")
    assert frozen.engine is not None
    reference = model.predict(empty)
    assert reference.shape == frozen(empty).shape == (0, 4)
    assert batch_analyzer_from_model(model)(empty).shape == (0, 4)


def test_zero_row_batch_through_each_reshaping_layer():
    for layer, shape, out in [
        (nn.Conv1D(3, 4, strides=2), (20, 2), (9, 3)),
        (LocallyConnected1D(3, 4, strides=2), (20, 2), (9, 3)),
        (nn.Flatten(), (20, 2), (40,)),
    ]:
        layer.build(shape, np.random.default_rng(0))
        assert layer.forward(np.empty((0,) + shape)).shape == (0,) + out


class TestInputMustMatchTheBuiltShape:
    """Per-position weights fit one input geometry only; einsum would
    broadcast a single window over every position's kernel, or apply the
    leading kernels to a longer input's windows."""

    def _built(self, length, channels=1):
        layer = LocallyConnected1D(2, 3, strides=3)
        layer.build((length, channels), np.random.default_rng(0))
        return layer

    @pytest.mark.parametrize(
        "built,fed",
        [((9, 1), (3, 1)), ((5, 1), (10, 1)), ((9, 1), (9, 2)), ((9, 1), (9,))],
        ids=["shorter", "longer", "channels", "rank"],
    )
    def test_refused(self, built, fed):
        layer = self._built(*built)
        with pytest.raises(ValueError) as err:
            layer.forward(np.ones((2,) + fed))
        assert str(built) in str(err.value) and str(fed) in str(err.value)

    def test_conv1d_still_takes_other_lengths(self):
        conv = nn.Conv1D(2, 3, strides=3)
        conv.build((9, 1), np.random.default_rng(0))
        assert conv.forward(np.ones((2, 15, 1))).shape == (2, 5, 2)
