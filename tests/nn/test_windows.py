"""The strided window kernel against the advanced-index gather and scatter it
replaced: same bytes, and a C-contiguous im2col whose GEMM reshape is a view.

The references below are the earlier implementation: ``x[:, idx, :]`` for
the gather and one unbuffered add per kernel offset for the scatter.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.nn.layers.windows import col2im, im2col, window_indices

# (length, kernel, stride) with stride in {1, 2, 3, kernel, > kernel};
# (5, 5, *) and stride 7 over length 5 give one window.
CASES = [
    (length, kernel, stride)
    for length, kernel in itertools.product((5, 12, 40), (1, 3, 5))
    for stride in sorted({1, 2, 3, kernel, kernel + 2})
]


def _add_at_scatter(dcols, idx, length):
    dx = np.zeros((dcols.shape[0], length, dcols.shape[-1]))
    for offset in range(idx.shape[1]):
        np.add.at(dx, (slice(None), idx[:, offset], slice(None)),
                  dcols[:, :, offset, :])
    return dx


def _padded_input(rng, n, length, channels, kernel, stride, padding):
    """x padded as Conv1D pads it, and the conv's output length."""
    conv = nn.Conv1D(2, kernel, strides=stride, padding=padding)
    conv.build((length, channels), np.random.default_rng(0))
    x = rng.standard_normal((n, length, channels))
    return np.pad(x, ((0, 0), conv._pad, (0, 0))), conv.output_shape[0]


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("channels", [1, 3, 25])
class TestKernel:
    def test_gather_is_the_fancy_index_copy(self, channels, padding, n):
        rng = np.random.default_rng(channels)
        one_window = 0
        for length, kernel, stride in CASES:
            xp, out_length = _padded_input(
                rng, n, length, channels, kernel, stride, padding
            )
            one_window += out_length == 1
            idx = window_indices(out_length, kernel, stride)
            cols = im2col(xp, kernel, stride)
            assert cols.shape == (n, out_length, kernel, channels)
            assert cols.tobytes() == xp[:, idx, :].tobytes()
            assert cols.flags.c_contiguous
            if n:
                gemm = cols.reshape(n * out_length, kernel * channels)
                assert np.shares_memory(cols, gemm)
        assert one_window

    def test_scatter_matches_add_at(self, channels, padding, n):
        rng = np.random.default_rng(channels + 1)
        for length, kernel, stride in CASES:
            xp, out_length = _padded_input(
                rng, n, length, channels, kernel, stride, padding
            )
            idx = window_indices(out_length, kernel, stride)
            dcols = rng.standard_normal((n, out_length, kernel, channels))
            dx = col2im(dcols, xp.shape[1], stride)
            assert dx.tobytes() == _add_at_scatter(dcols, idx, xp.shape[1]).tobytes()


class TestKernelEdges:
    def test_window_indices(self):
        idx = window_indices(3, 2, 3)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, [[0, 1], [3, 4], [6, 7]])

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((2, 4, 1)), 5, 1)

    def test_writes_into_out(self):
        x = np.arange(24.0).reshape(2, 6, 2)
        out = np.empty((2, 2, 3, 2))
        assert im2col(x, 3, 3, out=out) is out
        np.testing.assert_array_equal(out, x[:, window_indices(2, 3, 3), :])


def _train_step(layer, x, grad):
    y = layer.forward(x, training=True)
    return y, layer.backward(grad)


class TestConv1D:
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("channels", [1, 3, 25])
    def test_forward_and_backward_bytes(self, channels, padding):
        rng = np.random.default_rng(7)
        for length, kernel, stride in CASES:
            layer = nn.Conv1D(4, kernel, strides=stride, padding=padding)
            layer.build((length, channels), np.random.default_rng(0))
            x = rng.standard_normal((3, length, channels))
            out_length = layer.output_shape[0]
            grad = rng.standard_normal((3, out_length, 4))
            y, dx = _train_step(layer, x, grad)

            # The earlier implementation: fancy-index gather, reshape copy.
            lo, hi = layer._pad
            xp = np.pad(x, ((0, 0), (lo, hi), (0, 0)))
            idx = window_indices(out_length, kernel, stride)
            cols2 = xp[:, idx, :].reshape(3 * out_length, -1)
            w2 = layer.params["W"].reshape(-1, 4)
            ref_y = (cols2 @ w2).reshape(3, out_length, 4) + layer.params["b"]
            dz2 = grad.reshape(-1, 4)
            dcols = (dz2 @ w2.T).reshape(3, out_length, kernel, channels)
            ref_dx = _add_at_scatter(dcols, idx, xp.shape[1])[:, lo:lo + length]
            assert y.tobytes() == ref_y.tobytes()
            assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes()
            assert layer.grads["W"].tobytes() == (
                (cols2.T @ dz2).reshape(layer.params["W"].shape).tobytes()
            )


class TestPooling:
    @pytest.mark.parametrize("channels", [1, 3, 25])
    def test_maxpool_matches_fancy_index_exactly(self, channels):
        # Integer-valued inputs put ties in most windows.
        rng = np.random.default_rng(11)
        for length, pool, stride in CASES:
            layer = nn.MaxPool1D(pool, stride)
            layer.build((length, channels), np.random.default_rng(0))
            x = rng.integers(0, 3, (4, length, channels)).astype(float)
            out_length = layer.output_shape[0]
            grad = rng.standard_normal((4, out_length, channels))
            y, dx = _train_step(layer, x, grad)

            win = x[:, window_indices(out_length, pool, stride), :]
            ref_y = win.max(axis=2)
            mask = win == ref_y[:, :, None, :]
            mask &= np.cumsum(mask, axis=2) == 1
            ref_dx = _add_at_scatter(
                mask * grad[:, :, None, :],
                window_indices(out_length, pool, stride), length,
            )
            assert y.tobytes() == ref_y.tobytes()
            assert dx.tobytes() == ref_dx.tobytes()

    @pytest.mark.parametrize("channels", [1, 3, 25])
    @pytest.mark.parametrize("pool,stride", [(2, 2), (3, 1), (7, 3), (8, 8), (9, 2), (16, 5)])
    def test_avgpool_matches_fancy_index(self, channels, pool, stride):
        rng = np.random.default_rng(13)
        layer = nn.AvgPool1D(pool, stride)
        layer.build((60, channels), np.random.default_rng(0))
        x = rng.random((4, 60, channels))
        out_length = layer.output_shape[0]
        grad = rng.standard_normal((4, out_length, channels))
        y, dx = _train_step(layer, x, grad)

        idx = window_indices(out_length, pool, stride)
        ref_y = x[:, idx, :].mean(axis=2)
        dwin = np.broadcast_to(
            grad[:, :, None, :] / pool, (4, out_length, pool, channels)
        )
        assert dx.tobytes() == _add_at_scatter(dwin, idx, 60).tobytes()
        if channels == 1 and pool >= 8:
            # The window axis is now contiguous, so numpy's pairwise
            # summation may reorder the adds of each mean.
            np.testing.assert_allclose(y, ref_y, rtol=1e-15, atol=0)
        else:
            assert y.tobytes() == ref_y.tobytes()


class TestLocallyConnected1D:
    @pytest.mark.parametrize("channels,filters", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_matches_fancy_index(self, channels, filters):
        rng = np.random.default_rng(17)
        for kernel, stride in [(3, 1), (3, 3), (9, 9), (5, 2)]:
            layer = nn.LocallyConnected1D(filters, kernel, strides=stride)
            layer.build((60, channels), np.random.default_rng(0))
            # Positive weights, inputs and gradients: no cancellation, so a
            # reordered sum stays within a few ulps relative.
            layer.params["W"] = np.abs(layer.params["W"])
            x = rng.random((4, 60, channels))
            out_length = layer.output_shape[0]
            grad = rng.random((4, out_length, filters))
            y, dx = _train_step(layer, x, grad)

            idx = window_indices(out_length, kernel, stride)
            flat = x[:, idx, :].reshape(4, out_length, -1)
            W = layer.params["W"]
            ref_y = np.einsum("nlk,lkf->nlf", flat, W) + layer.params["b"]
            ref_dw = np.einsum("nlk,nlf->lkf", flat, grad)
            dflat = np.einsum("nlf,lkf->nlk", grad, W)
            ref_dx = _add_at_scatter(
                dflat.reshape(4, out_length, kernel, channels), idx, 60
            )
            if channels == 1 and filters == 1:
                # einsum takes its contiguous fast path on the new layout.
                for got, want in ((y, ref_y), (layer.grads["W"], ref_dw), (dx, ref_dx)):
                    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            else:
                assert y.tobytes() == ref_y.tobytes()
                assert layer.grads["W"].tobytes() == ref_dw.tobytes()
                assert dx.tobytes() == ref_dx.tobytes()
