"""LocallyConnected1D's weight gradient keeps einsum's bytes.

The layer sums each filter's products over the batch axis of one
im2col-sized scratch instead of calling ``einsum("nlk,nlf->lkf")``.  Both
add the batch rows one after another, so the bytes agree, with one
exception spelled out below.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import nmr_conv_topology
from repro.nn.layers.conv import LocallyConnected1D
from repro.nn.layers.windows import im2col

# (kernel, channels) for each K*C of the grid.
WINDOWS = {1: (1, 1), 2: (2, 1), 9: (3, 3), 27: (9, 3)}


def _einsum_grad(self, flat, dz):
    return np.einsum("nlk,nlf->lkf", flat, dz)


def _weight_grad(batch, out_length, kc, filters, seed):
    """The layer's ``grads["W"]`` and einsum's, on zero-heavy gradients."""
    kernel, channels = WINDOWS[kc]
    length = out_length + kernel - 1
    layer = LocallyConnected1D(filters, kernel)
    layer.build((length, channels), np.random.default_rng(0))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, length, channels))
    dz = rng.standard_normal((batch, out_length, filters))
    dz[rng.random(dz.shape) < 0.6] = 0.0
    layer.forward(x, training=True)
    layer.backward(dz, input_grad=False)
    flat = im2col(x, kernel, 1).reshape(batch, out_length, kc)
    return layer.grads["W"], flat, dz


@pytest.mark.parametrize("batch", [1, 2, 5, 16, 64])
def test_bytes_equal_einsum(batch):
    for case, (out_length, kc, filters) in enumerate(
        itertools.product([1, 2, 7, 188], [1, 2, 9, 27], [1, 2, 4, 25])
    ):
        got, flat, dz = _weight_grad(batch, out_length, kc, filters, seed=case)
        want = np.einsum("nlk,nlf->lkf", flat, dz)
        assert got.shape == want.shape and got.flags.c_contiguous
        if out_length * kc == 1 and batch > 8:
            # One position of one input: the batch axis is the scratch's
            # only axis and contiguous, and numpy sums a contiguous axis of
            # 8 or more pairwise (einsum adds it in order, or in SIMD lanes
            # at one filter).  The same class of exception as AvgPool1D's
            # one-channel pool and LocallyConnected1D's one-channel,
            # one-filter forward; no workload builds this layer.  Both are
            # within the rounding bound of a batch-long sum.
            scale = np.einsum("nlk,nlf->lkf", np.abs(flat), np.abs(dz))
            assert np.all(np.abs(got - want) <= batch * np.finfo(float).eps * scale)
        else:
            assert got.tobytes() == want.tobytes(), (out_length, kc, filters)


def test_signed_zeros_match_einsum():
    """A weight whose every product is a signed zero gets einsum's zero."""
    for sign in (1.0, -1.0):
        for zero in (0.0, -0.0):
            flat = np.full((3, 2, 2), sign)
            dz = np.full((3, 2, 1), zero)
            layer = LocallyConnected1D(1, 1)
            got = layer._weight_grad(flat, dz)
            assert got.tobytes() == np.einsum("nlk,nlf->lkf", flat, dz).tobytes()


def _train_step_peak(monkeypatch, kernel=None):
    if kernel is not None:
        monkeypatch.setattr(LocallyConnected1D, "_weight_grad", kernel)
    model = nmr_conv_topology().build((1700,), seed=0)
    model.compile(nn.Adam(0.003), "mse")
    rng = np.random.default_rng(0)
    x, y = rng.random((64, 1700)), rng.dirichlet(np.ones(4), size=64)
    tracemalloc.start()
    try:
        model.train_on_batch(x, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nmr_conv_step_peaks_at_most_one_im2col_above_einsum(monkeypatch):
    layer = nmr_conv_topology().build((1700,), seed=0).layers[1]
    im2col_bytes = 64 * layer.output_shape[0] * layer.kernel_size * 8
    assert im2col_bytes == 866_304
    peak = _train_step_peak(monkeypatch)
    einsum_peak = _train_step_peak(monkeypatch, _einsum_grad)
    assert peak <= einsum_peak + im2col_bytes
