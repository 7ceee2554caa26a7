"""Tool 3 — simulator of the portable mass spectrometer.

Takes instrument characteristics (typically *fitted* ones from Tool 2) and
renders ideal line spectra into continuous, noisy spectra "matching the
characteristics of the real measuring device".  Its main job is the bulk
generation of labelled training data: with a precomputed per-compound
response matrix, a 100 000-spectrum dataset takes seconds.

As the paper notes, "the simulator only considers a static system state" —
no per-shot peak jitter, no contamination, no drift.  Those omissions are
deliberate: they are what separates simulated from measured accuracy.
"""

from __future__ import annotations

import copy
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ms.compounds import CompoundLibrary, default_library
from repro.ms.instrument import InstrumentCharacteristics, render_line_spectrum
from repro.ms.line_spectra import LineSpectrum, ideal_mixture_spectrum
from repro.ms.mixtures import sample_concentrations
from repro.ms.spectrum import MassSpectrum, MzAxis

__all__ = ["MassSpectrometerSimulator"]

# Spectra post-processed at once.  The baseline, noise and normalisation
# temporaries are block-sized, so peak memory is the returned arrays plus
# a constant instead of several times the dataset.  It changes no output
# byte.
_BLOCK_ROWS = 64


class MassSpectrometerSimulator:
    """Continuous-spectrum renderer + training-data generator."""

    def __init__(
        self,
        characteristics: InstrumentCharacteristics,
        axis: MzAxis = MzAxis(),
        library: Optional[CompoundLibrary] = None,
    ):
        self.characteristics = characteristics
        self.axis = axis
        self.library = library if library is not None else default_library()

    @classmethod
    def from_spec(
        cls, axis: Sequence[float], characteristics: Optional[Mapping] = None
    ) -> "MassSpectrometerSimulator":
        """The simulator a campaign spec describes: ``axis`` is ``(start,
        stop, step)``, ``characteristics`` overrides instrument defaults."""
        start, stop, step = axis
        return cls(
            InstrumentCharacteristics(**(characteristics or {})),
            MzAxis(start, stop, step),
        )

    # -- single-spectrum API -------------------------------------------------

    def render(
        self,
        lines: LineSpectrum,
        rng: Optional[np.random.Generator] = None,
        with_noise: bool = True,
    ) -> MassSpectrum:
        """Render a stick spectrum into a continuous spectrum."""
        if with_noise and rng is None:
            raise ValueError("with_noise=True requires an rng")
        signal = render_line_spectrum(lines, self.axis, self.characteristics)
        self._finish(signal[None, :], rng, with_noise, "none")
        return MassSpectrum(self.axis, signal, dict(lines.metadata))

    def simulate(
        self,
        concentrations: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
        with_noise: bool = True,
    ) -> MassSpectrum:
        """Simulate one measurement of a mixture (Tool 1 + Tool 3)."""
        lines = ideal_mixture_spectrum(concentrations, self.library)
        return self.render(lines, rng=rng, with_noise=with_noise)

    # -- bulk dataset generation ----------------------------------------------

    def response_matrix(self, compound_names: Sequence[str]) -> np.ndarray:
        """(n_compounds, axis.size) continuous unit-concentration responses."""
        rows = []
        for name in compound_names:
            lines = ideal_mixture_spectrum({name: 1.0}, self.library)
            rows.append(render_line_spectrum(lines, self.axis, self.characteristics))
        return np.stack(rows, axis=0)

    def generate_dataset(
        self,
        compound_names: Sequence[str],
        n: int,
        rng: np.random.Generator,
        concentration_sampler: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None,
        normalize: str = "max",
        with_noise: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` labelled simulated spectra.

        Returns ``(X, Y)`` with ``X`` of shape ``(n, axis.size)`` (normalized
        spectra) and ``Y`` of shape ``(n, len(compound_names))`` (the
        concentration labels, summing to one per row).

        The whole pipeline is vectorized through the response matrix, so the
        cost is one ``(n, k) @ (k, grid)`` matmul plus noise generation —
        "a sufficient number of simulated and labelled measurement series
        can be generated in minutes".  The matmul writes the output array;
        ignition signal, baseline, noise, clipping and normalisation then
        run on it in place, ``_BLOCK_ROWS`` rows at a time.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if not compound_names:
            raise ValueError("compound_names must not be empty")
        if normalize not in ("max", "area", "none"):
            raise ValueError(f"normalize must be max/area/none, got {normalize!r}")
        sampler = concentration_sampler or (
            lambda count, generator: sample_concentrations(
                len(compound_names), count, generator
            )
        )
        labels = np.asarray(sampler(n, rng), dtype=np.float64)
        if labels.shape != (n, len(compound_names)):
            raise ValueError(
                f"concentration sampler returned shape {labels.shape}, "
                f"expected {(n, len(compound_names))}"
            )
        spectra = labels @ self.response_matrix(compound_names)
        self._finish(spectra, rng, with_noise, normalize)
        return spectra, labels

    def generate_dataset_cached(
        self,
        compound_names: Sequence[str],
        n: int,
        seed: int,
        cache,
        normalize: str = "max",
        with_noise: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed-driven :meth:`generate_dataset` through an
        :class:`~repro.compute.cache.ArtifactCache`.

        The cache key is the canonical hash of (characteristics, axis,
        compounds, n, seed, normalize, with_noise), so a repeat call with
        an identical config is a checksummed read instead of a re-render.
        """
        from repro.compute.datasets import generate_ms_dataset

        x, y, _ = generate_ms_dataset(
            self, compound_names, n, seed, cache=cache,
            normalize=normalize, with_noise=with_noise,
        )
        return x, y

    # -- internals -------------------------------------------------------------

    def _finish(
        self,
        spectra: np.ndarray,
        rng: Optional[np.random.Generator],
        with_noise: bool,
        normalize: str,
    ) -> None:
        """Turn clean ``(n, grid)`` spectra into measured ones, in place.

        Adds the ignition-gas signal and, with noise, a baseline and the
        additive and shot noise, then clips and normalises, ``_BLOCK_ROWS``
        rows at a time.  Draw order: baseline phases, baseline slopes,
        every additive normal, every shot normal.
        """
        n = spectra.shape[0]
        ignition = self._ignition_gas_signal()
        if with_noise:
            baselines = self._draw_baselines(n, rng)
            noise_rng, shot_rng = self._split_noise_streams(spectra.shape, rng)
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, n))
            block = spectra[rows]
            block += ignition
            if with_noise:
                if baselines is not None:
                    block += self._baselines(baselines[0][rows], baselines[1][rows])
                self._add_noise(block, noise_rng, shot_rng)
            if normalize != "none":
                if normalize == "max":
                    scale = np.max(block, axis=1, keepdims=True)
                else:
                    scale = np.sum(block, axis=1, keepdims=True) * self.axis.step
                np.clip(scale, 1e-12, None, out=scale)
                block /= scale

    def _ignition_gas_signal(self) -> np.ndarray:
        ch = self.characteristics
        if ch.ignition_gas_intensity <= 0:
            return np.zeros(self.axis.size)
        artifact = LineSpectrum(
            np.array([ch.ignition_gas_mz]), np.array([ch.ignition_gas_intensity])
        )
        return render_line_spectrum(artifact, self.axis, ch)

    def _draw_baselines(
        self, n: int, rng: np.random.Generator
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Phases and slopes of ``n`` baselines; ``None`` (no draw) when the
        instrument has no baseline."""
        if self.characteristics.baseline_amplitude == 0:
            return None
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
        slopes = rng.uniform(0.3, 1.0, size=(n, 1))
        return phases, slopes

    def _baselines(self, phases: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        ch = self.characteristics
        grid = self.axis.values()
        wave = np.sin(2.0 * np.pi * grid[None, :] / ch.baseline_period + phases)
        return ch.baseline_amplitude * 0.5 * (wave + 1.0) * slopes

    @staticmethod
    def _split_noise_streams(
        shape: Tuple[int, int], rng: np.random.Generator
    ) -> Tuple[np.random.Generator, np.random.Generator]:
        """Generators for the additive and the shot normals of a dataset.

        The stream draws every additive normal of the dataset before any
        shot normal.  A copy of ``rng`` yields the additive normals; ``rng``
        itself is advanced past them, a block at a time, and then yields
        the shot normals, so it ends where one whole-dataset draw leaves it.
        """
        noise_rng = copy.deepcopy(rng)
        n, points = shape
        discard = np.empty((min(_BLOCK_ROWS, n), points))
        for start in range(0, n, _BLOCK_ROWS):
            rng.standard_normal(out=discard[: min(_BLOCK_ROWS, n - start)])
        return noise_rng, rng

    def _add_noise(
        self,
        signal: np.ndarray,
        noise_rng: np.random.Generator,
        shot_rng: np.random.Generator,
    ) -> None:
        """Add additive and shot noise to ``signal`` in place, then clip at 0."""
        ch = self.characteristics
        noise = noise_rng.normal(0.0, ch.noise_sigma, size=signal.shape)
        shot = shot_rng.normal(0.0, 1.0, size=signal.shape) * (
            ch.shot_noise_factor * np.sqrt(np.abs(signal))
        )
        signal += noise
        signal += shot
        np.clip(signal, 0.0, None, out=signal)
