"""The IHM-based synthetic-spectra generator (the data-augmentation engine).

"Linear combinations of the parametric models of pure component spectra can
then be calculated to generate NMR spectra for arbitrary values of the four
compound concentrations" — with per-component peak *shifts* and
*broadening* included, which is the stated advantage of IHM simulation over
a naive linear combination of experimental spectra (whose noise would scale
wrongly and whose peaks could not move).

The generator samples concentrations from per-component ranges (typically
the padded ranges of the experimental campaign, since an ANN cannot
extrapolate beyond its training label range), then renders each spectrum
with random shift/broadening/noise/baseline realizations.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.nmr.hard_model import HardModelSet
from repro.nmr.lineshapes import pseudo_voigt_table

__all__ = ["NMRSpectrumSimulator"]

# Spectra rendered at once.  A 32 x 1700 float64 temporary is ~435 KB, so
# the dozen temporaries of one block stay in a 4 MiB L2 cache and peak
# memory does not grow with ``chunk_size``.  It changes no output byte.
_BLOCK_ROWS = 32


class NMRSpectrumSimulator:
    """Bulk generator of labelled synthetic NMR spectra."""

    def __init__(
        self,
        models: HardModelSet,
        concentration_ranges: Mapping[str, Tuple[float, float]],
        shift_sigma: float = 0.008,
        broadening_sigma: float = 0.05,
        noise_sigma: float = 0.015,
        baseline_amplitude: float = 0.01,
        phase_sigma: float = 0.06,
        peak_jitter: float = 0.004,
    ):
        for label, value in (
            ("shift_sigma", shift_sigma),
            ("broadening_sigma", broadening_sigma),
            ("noise_sigma", noise_sigma),
            ("baseline_amplitude", baseline_amplitude),
            ("phase_sigma", phase_sigma),
            ("peak_jitter", peak_jitter),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative")
        self.models = models
        self.ranges: Dict[str, Tuple[float, float]] = {}
        for name in models.names:
            if name not in concentration_ranges:
                raise ValueError(f"no concentration range for component {name!r}")
            low, high = concentration_ranges[name]
            if low < 0 or high < low:
                raise ValueError(
                    f"invalid range for {name}: ({low}, {high})"
                )
            self.ranges[name] = (float(low), float(high))
        self.shift_sigma = float(shift_sigma)
        self.broadening_sigma = float(broadening_sigma)
        self.noise_sigma = float(noise_sigma)
        self.baseline_amplitude = float(baseline_amplitude)
        self.phase_sigma = float(phase_sigma)
        self.peak_jitter = float(peak_jitter)

    @classmethod
    def from_dataset(
        cls,
        models: HardModelSet,
        dataset,
        range_padding: float = 0.15,
        **kwargs,
    ) -> "NMRSpectrumSimulator":
        """Build a simulator whose label ranges cover an experimental
        dataset (plus padding), the paper's recommended practice of
        training "over the full range of concentrations, not just the ones
        available in our experimental ... dataset"."""
        if range_padding < 0:
            raise ValueError("range_padding must be non-negative")
        ranges = {}
        for name, (low, high) in dataset.concentration_ranges().items():
            span = max(high - low, 1e-6)
            ranges[name] = (
                max(low - range_padding * span, 0.0),
                high + range_padding * span,
            )
        return cls(models, ranges, **kwargs)

    # -- sampling ---------------------------------------------------------

    def sample_concentrations(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform, independent concentrations within each component range.

        Independent sampling deliberately covers combinations the reaction
        could never produce — the network should learn spectroscopy, not
        the reaction manifold.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        columns = []
        for name in self.models.names:
            low, high = self.ranges[name]
            columns.append(rng.uniform(low, high, size=n))
        return np.stack(columns, axis=1)

    # -- generation ---------------------------------------------------------

    def generate_dataset(
        self,
        n: int,
        rng: np.random.Generator,
        concentrations: Optional[np.ndarray] = None,
        with_noise: bool = True,
        chunk_size: int = 2048,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` labelled spectra; returns (X, Y).

        X has shape ``(n, axis.points)``, Y ``(n, n_components)`` in mol/L.
        ``chunk_size`` sets how many spectra share one draw of each random
        parameter array, so it is part of the generating config.
        """
        if concentrations is None:
            labels = self.sample_concentrations(n, rng)
        else:
            labels = np.asarray(concentrations, dtype=np.float64)
            if labels.shape != (n, len(self.models)):
                raise ValueError(
                    f"concentrations shape {labels.shape} != "
                    f"{(n, len(self.models))}"
                )
            if not np.all(np.isfinite(labels)) or np.any(labels < 0):
                raise ValueError("concentrations must be finite and non-negative")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        out = np.empty((n, self.models.axis.points))
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            self._render_chunk(labels[start:stop], rng, with_noise, out[start:stop])
        return out, labels

    def generate_dataset_cached(
        self,
        n: int,
        seed: int,
        cache,
        with_noise: bool = True,
        chunk_size: int = 2048,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed-driven :meth:`generate_dataset` through an
        :class:`~repro.compute.cache.ArtifactCache`.

        The cache key covers the full generating config (hard-model peak
        tables, label ranges, noise parameters, n, seed, chunking), so a
        repeat call with an identical config is a checksummed read.
        """
        from repro.compute.datasets import generate_nmr_dataset

        x, y, _ = generate_nmr_dataset(
            self, n, seed, cache=cache,
            with_noise=with_noise, chunk_size=chunk_size,
        )
        return x, y

    def _render_chunk(
        self,
        labels: np.ndarray,
        rng: np.random.Generator,
        with_noise: bool,
        out: np.ndarray,
    ) -> None:
        """Render the spectra of ``labels`` into ``out``.

        Every random number of the chunk is drawn first, in a fixed order:
        phases; per component its shifts, broadenings and per-peak jitter;
        baseline phases.  The chunk is then rendered ``_BLOCK_ROWS`` rows
        at a time.  The noise, drawn last, is drawn block by block, which
        is the same stream as one draw for the whole chunk.
        """
        n = labels.shape[0]
        grid = self.models.axis.values()
        phases = rng.normal(0.0, self.phase_sigma, size=n) if with_noise else np.zeros(n)
        lines = []  # per component: (peak, centers, fwhms) for every peak
        for model in self.models.models:
            shifts = rng.normal(0.0, self.shift_sigma, size=n) if with_noise else np.zeros(n)
            broadenings = (
                np.clip(rng.normal(1.0, self.broadening_sigma, size=n), 0.3, None)
                if with_noise
                else np.ones(n)
            )
            peaks = []
            for peak in model.peaks:
                centers = peak.center + shifts
                if with_noise and self.peak_jitter > 0:
                    centers = centers + rng.normal(0.0, self.peak_jitter, size=n)
                peaks.append((peak, centers, peak.fwhm * broadenings))
            lines.append(peaks)
        baseline_phases = (
            rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
            if with_noise and self.baseline_amplitude != 0
            else None
        )

        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, n))
            block = out[rows]
            block[...] = 0.0
            for j, peaks in enumerate(lines):
                component = np.zeros(block.shape)
                for peak, centers, fwhms in peaks:
                    component += peak.area * pseudo_voigt_table(
                        grid, centers[rows], fwhms[rows], peak.eta, phases[rows]
                    )
                block += labels[rows, j : j + 1] * component
            if with_noise:
                if baseline_phases is not None:
                    block += self._baselines(grid, baseline_phases[rows])
                block += rng.normal(0.0, self.noise_sigma, size=block.shape)

    def _baselines(self, grid: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Slow sinusoidal baseline drift, one phase per row."""
        axis = self.models.axis
        span = axis.stop - axis.start
        return self.baseline_amplitude * np.sin(
            2.0 * np.pi * (grid[None, :] - axis.start) / (2.0 * span) + phases
        )
