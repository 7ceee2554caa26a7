"""Tool 3 — simulator of the portable mass spectrometer.

Takes instrument characteristics (typically *fitted* ones from Tool 2) and
renders ideal line spectra into continuous, noisy spectra "matching the
characteristics of the real measuring device".  Its main job is the bulk
generation of labelled training data: with a precomputed per-compound
response matrix, a 100 000-spectrum dataset takes seconds.  A dataset of
more than one row block draws its shot noise on a helper thread while the
calling thread draws the additive noise from a copy of the generator; the
output bytes and the generator's end state are those of a serial draw.

As the paper notes, "the simulator only considers a static system state" —
no per-shot peak jitter, no contamination, no drift.  Those omissions are
deliberate: they are what separates simulated from measured accuracy.
"""

from __future__ import annotations

import copy
import numbers
import queue
import threading
from contextlib import nullcontext
from itertools import repeat
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

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
# Shot-noise blocks the helper thread may draw ahead of the main thread.
_RING_BLOCKS = 3


def _positive_int(name: str, value) -> int:
    """``value`` as an int: a fractional, NaN or infinite number is
    refused rather than truncated, and so is anything below 1."""
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, numbers.Integral)
        and not float(value).is_integer()
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


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
        n = _positive_int("n", n)
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
        every additive normal, every shot normal.  A copy of ``rng`` draws
        the additive normals on this thread while ``rng`` itself runs
        :func:`_shot_normals`: on a helper thread when there is more than
        one block, inline otherwise.
        """
        n = spectra.shape[0]
        blocks = [spectra[start : start + _BLOCK_ROWS] for start in range(0, n, _BLOCK_ROWS)]
        ignition = self._ignition_gas_signal()
        baselines, ahead = None, nullcontext(repeat(None))
        if with_noise:
            baselines = self._draw_baselines(n, rng)
            noise_rng = copy.deepcopy(rng)
            ring = [np.empty(blocks[0].shape) for _ in blocks[:_RING_BLOCKS]]
            shots = _shot_normals(rng, n, ring)
            ahead = _DrawAhead(shots, len(ring)) if len(blocks) > 1 else nullcontext(shots)
        with ahead as shots:
            for start, block in zip(range(0, n, _BLOCK_ROWS), blocks):
                block += ignition
                if baselines is not None:
                    rows = slice(start, start + len(block))
                    block += self._baselines(baselines[0][rows], baselines[1][rows])
            ch = self.characteristics
            for block, shot in zip(blocks, shots):
                if shot is not None:
                    noise = noise_rng.normal(0.0, ch.noise_sigma, size=block.shape)
                    shot *= ch.shot_noise_factor * np.sqrt(np.abs(block))
                    block += noise
                    block += shot
                    np.clip(block, 0.0, None, out=block)
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


def _shot_normals(rng: np.random.Generator, n: int, ring: List[np.ndarray]) -> Iterator[np.ndarray]:
    """The shot normals of an ``n``-row pass, block by block.

    Advances ``rng`` past the pass's additive normals (``n × grid``
    standard normals, drawn into ``ring[0]`` and discarded), then draws
    each block's shot normals into the next slot of ``ring`` and yields
    it.  ``rng`` ends where one whole-pass draw leaves it.
    """
    rows = ring[0].shape[0]
    starts = range(0, n, rows)
    for start in starts:
        rng.standard_normal(out=ring[0][: min(rows, n - start)])
    for index, start in enumerate(starts):
        shot = ring[index % len(ring)][: min(rows, n - start)]
        rng.standard_normal(out=shot)
        yield shot


class _DrawAhead:
    """Drive a producer on a helper thread, at most ``depth`` items ahead.

    Iterating yields the producer's items in order; the helper resumes
    the producer only when the item ``depth`` back has been consumed, so
    a producer that writes into a ring of ``depth`` buffers never
    overwrites one still in use.  Leaving the ``with`` block stops and
    joins the thread, and an exception inside the producer is re-raised
    on the iterating thread.
    """

    def __init__(self, producer: Iterator, depth: int):
        self._producer = producer
        self._free = threading.Semaphore(depth)
        self._ready = queue.SimpleQueue()
        self._stopped = False
        self._thread = threading.Thread(target=self._drive, daemon=True)

    def __enter__(self) -> "_DrawAhead":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stopped = True
        self._free.release()
        self._thread.join()

    def __iter__(self) -> Iterator:
        while True:
            item = self._ready.get()
            if isinstance(item, StopIteration):
                return
            if isinstance(item, BaseException):
                raise item
            yield item
            self._free.release()

    def _drive(self) -> None:
        try:
            while True:
                self._free.acquire()
                if self._stopped:
                    return
                self._ready.put(next(self._producer))
        except BaseException as exc:  # StopIteration included: the end
            self._ready.put(exc)
