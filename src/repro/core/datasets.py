"""Labelled spectra datasets with a shuffled train/test row split."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
