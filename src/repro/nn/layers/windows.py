"""The one strided window kernel behind every windowed op.

Conv1D, LocallyConnected1D, MaxPool1D and AvgPool1D read their input as
``out_length`` windows of ``kernel`` rows taken every ``stride`` rows, and
so does the frozen :class:`~repro.inference.engine.InferenceEngine`.

* :func:`im2col` gathers (N, L, C) into (N, out_L, K, C) with one C-order
  copy of a read-only sliding-window view.  Because the copy is
  C-contiguous, the GEMM operand ``cols.reshape(N * out_L, K * C)`` is a
  view, not a second copy.  (An advanced-index gather ``x[:, idx, :]``
  lays its result out as (out_L, K, N, C) in memory, so that reshape
  silently copied the whole im2col again.)
* :func:`col2im` scatter-adds the window gradients back with in-place
  adds into basic slices.  For a fixed offset the window rows do not
  overlap, and for ``stride > 1`` the ``stride`` offsets ``k … k+stride-1``
  write disjoint rows that tile the slab ``k … k + out_L·stride - 1``.
  So each group of ``stride`` offsets is one add into that slab viewed as
  (N, out_L, stride, C), taken in ascending ``k``; offsets whose slab
  would run off the input go one at a time.  Every input row still
  receives exactly its adds, in offset order, as the earlier fancy-index
  ``+=`` passes did, so the bytes are unchanged (DESIGN §16).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["window_indices", "im2col", "col2im"]


def window_indices(out_length: int, kernel: int, stride: int) -> np.ndarray:
    """(out_length, kernel) int64 table of the rows each window reads."""
    starts = np.arange(out_length, dtype=np.int64) * stride
    return starts[:, None] + np.arange(kernel, dtype=np.int64)[None, :]


def im2col(
    x: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gather (N, L, C) into C-contiguous (N, out_L, kernel, C) windows.

    ``out_L = (L - kernel) // stride + 1``.  Writes into ``out`` when
    given (the engine's preallocated scratch), else into a new array.
    """
    view = sliding_window_view(x, kernel, axis=1)[:, ::stride].swapaxes(2, 3)
    if out is None:
        out = np.empty(view.shape, dtype=x.dtype)
    np.copyto(out, view)
    return out


def col2im(dcols: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Scatter-add (N, out_L, K, C) window gradients back to (N, length, C)."""
    n, out_length, kernel, channels = dcols.shape
    dx = np.zeros((n, length, channels), dtype=dcols.dtype)
    span = (out_length - 1) * stride + 1
    slab = out_length * stride
    group = stride if 1 < stride <= kernel else 1
    for start in range(0, kernel, group):
        width = min(group, kernel - start)
        if width > 1 and start + slab <= length:
            rows = dx[:, start : start + slab].reshape(n, out_length, stride, channels)
            rows[:, :, :width] += dcols[:, :, start : start + width]
            continue
        for offset in range(start, start + width):
            dx[:, offset : offset + span : stride, :] += dcols[:, :, offset, :]
    return dx
