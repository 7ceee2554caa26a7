"""Spectrum containers shared by the MS toolchain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = ["MzAxis", "MassSpectrum"]


@dataclass(frozen=True)
class MzAxis:
    """A uniform mass-to-charge axis.

    The MMS prototype lets the operator choose both the m/z range and the
    stepsize (the paper interpolates when the resolution changes), so the
    axis is an explicit object rather than an implicit array convention.
    """

    start: float = 1.0
    stop: float = 50.0
    step: float = 0.1

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.stop <= self.start:
            raise ValueError(
                f"stop ({self.stop}) must exceed start ({self.start})"
            )

    @property
    def size(self) -> int:
        return int(np.floor((self.stop - self.start) / self.step + 0.5)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size)

    def index_of(self, mz: float) -> int:
        """Nearest grid index for an m/z value (clipped to the axis)."""
        idx = int(np.round((mz - self.start) / self.step))
        return int(np.clip(idx, 0, self.size - 1))


@dataclass
class MassSpectrum:
    """A continuous (sampled) mass spectrum on a uniform m/z axis."""

    axis: MzAxis
    intensities: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        if self.intensities.ndim != 1:
            raise ValueError("intensities must be 1-D")
        if self.intensities.size != self.axis.size:
            raise ValueError(
                f"intensities length {self.intensities.size} does not match "
                f"axis size {self.axis.size}"
            )

    @property
    def mz(self) -> np.ndarray:
        return self.axis.values()

    def normalized(self, mode: str = "max") -> "MassSpectrum":
        """Return a copy scaled to unit maximum or unit area.

        Spectra are normalized before being fed to the ANN so the network
        sees shape, not absolute ion current.
        """
        if mode == "max":
            denom = float(np.max(np.abs(self.intensities)))
        elif mode == "area":
            denom = float(np.sum(np.abs(self.intensities)) * self.axis.step)
        else:
            raise ValueError(f"mode must be 'max' or 'area', got {mode!r}")
        if denom == 0.0:
            return MassSpectrum(self.axis, self.intensities.copy(), dict(self.metadata))
        return MassSpectrum(self.axis, self.intensities / denom, dict(self.metadata))

    def __len__(self) -> int:
        return self.intensities.size
