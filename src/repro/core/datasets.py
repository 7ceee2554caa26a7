"""Labelled spectra datasets with splitting and normalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpectraDataset"]


@dataclass
class SpectraDataset:
    """Spectra ``x`` with concentration labels ``y``.

    ``x`` is ``(n, spectrum_length)`` (or ``(n, timesteps, length)`` for
    windowed time-series data), ``y`` is ``(n, n_outputs)``;
    ``output_names`` label the y columns.
    """

    x: np.ndarray
    y: np.ndarray
    output_names: Tuple[str, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )
        if self.y.ndim != 2:
            raise ValueError("y must be 2-D (samples, outputs)")
        if len(self.output_names) != self.y.shape[1]:
            raise ValueError(
                f"{len(self.output_names)} output names for {self.y.shape[1]} outputs"
            )
        self.output_names = tuple(self.output_names)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self.x.shape[1:])

    def split_rows(
        self, train_fraction: float = 0.8, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shuffled train/test row indices (the paper uses 80 %/20 %).

        One ``rng.permutation(len(self))`` draw: its first
        ``round(train_fraction * n)`` entries are the train rows, the rest
        the test rows.  Raises ``ValueError`` when either side is empty.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = rng if rng is not None else np.random.default_rng(0)
        n = len(self)
        order = rng.permutation(n)
        cut = int(round(train_fraction * n))
        if cut == 0 or cut == n:
            raise ValueError(
                f"split of {n} samples at {train_fraction} leaves an empty side"
            )
        return order[:cut], order[cut:]

    def split(
        self, train_fraction: float = 0.8, rng: Optional[np.random.Generator] = None
    ) -> Tuple["SpectraDataset", "SpectraDataset"]:
        """The rows of :meth:`split_rows` as two datasets."""
        train_rows, test_rows = self.split_rows(train_fraction, rng)
        cut = len(train_rows)
        # One shuffled copy, cut into two row views, so the split is one
        # allocation.  Two copies (80 % and 20 %) fall under glibc's 32 MiB
        # mmap ceiling for 20 000 x 246 spectra; freeing them raises malloc's
        # mmap threshold, the next split lands on the heap and how much of
        # it stays resident depends on thread timing.
        order = np.concatenate((train_rows, test_rows))
        x, y = self.x[order], self.y[order]
        return (
            SpectraDataset(x[:cut], y[:cut], self.output_names,
                           dict(self.metadata, subset="train")),
            SpectraDataset(x[cut:], y[cut:], self.output_names,
                           dict(self.metadata, subset="test")),
        )

    def subset(self, indices: Sequence[int], label: str = "subset") -> "SpectraDataset":
        """Rows at ``indices`` as a new dataset.

        ``indices`` may be an integer sequence/array or a boolean mask of
        length ``len(self)``.  Negative integers follow Python semantics
        (``-1`` is the last sample) and are normalized before selection;
        anything outside ``[-len(self), len(self))`` raises ``IndexError``
        naming the offending values instead of silently aliasing.
        """
        indices = np.asarray(indices)
        n = len(self)
        if indices.dtype == np.bool_:
            if indices.shape != (n,):
                raise IndexError(
                    f"boolean mask of shape {indices.shape} cannot index "
                    f"{n} samples (need ({n},))"
                )
            indices = np.flatnonzero(indices)
        else:
            if indices.size and not np.issubdtype(indices.dtype, np.integer):
                raise IndexError(
                    f"indices must be integers or a boolean mask, "
                    f"got dtype {indices.dtype}"
                )
            if indices.ndim > 1:
                raise IndexError(
                    f"indices must be 1-D, got shape {indices.shape}"
                )
            indices = indices.astype(np.intp, copy=True).reshape(-1)
            bad = (indices < -n) | (indices >= n)
            if np.any(bad):
                offending = indices[bad][:5].tolist()
                raise IndexError(
                    f"indices {offending} out of range for {n} samples "
                    f"(valid: [-{n}, {n}))"
                )
            indices[indices < 0] += n
        metadata = dict(self.metadata)
        metadata["subset"] = label
        return SpectraDataset(
            self.x[indices], self.y[indices], self.output_names, metadata
        )

    def labels_as_dicts(self) -> list:
        """Rows of y as {name: value} dicts (for reports)."""
        return [
            {name: float(v) for name, v in zip(self.output_names, row)}
            for row in self.y
        ]

    def label_ranges(self) -> Dict[str, Tuple[float, float]]:
        return {
            name: (float(self.y[:, j].min()), float(self.y[:, j].max()))
            for j, name in enumerate(self.output_names)
        }
