"""Cache-aware wrappers around the two bulk dataset generators.

The MS and NMR simulators are pure functions of their configuration and a
seed, which makes their output perfectly cacheable: these helpers derive
the canonical generating config for each simulator — every parameter that
can change a byte of the output — and route generation through an
:class:`~repro.compute.cache.ArtifactCache`.

The config builders are public on purpose: tests pin the key derivation,
and the CLI/bench layers use them to predict hits without generating.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compute.cache import ArtifactCache, get_or_compute

__all__ = [
    "ms_dataset_config",
    "nmr_dataset_config",
    "generate_ms_dataset",
    "generate_nmr_dataset",
]


def ms_dataset_config(
    simulator,
    compound_names: Sequence[str],
    n: int,
    seed: int,
    normalize: str = "max",
    with_noise: bool = True,
) -> dict:
    """The canonical generating config of one simulated MS dataset.

    Covers the full byte-determining surface: instrument characteristics,
    m/z axis, compound set (order matters — it is the label column order),
    sample count, seed, normalization and noise switch.
    """
    axis = simulator.axis
    return {
        "kind": "ms_dataset",
        "characteristics": dataclasses.asdict(simulator.characteristics),
        "axis": {"start": axis.start, "stop": axis.stop, "step": axis.step},
        "compounds": list(compound_names),
        "n": int(n),
        "seed": int(seed),
        "normalize": str(normalize),
        "with_noise": bool(with_noise),
    }


def nmr_dataset_config(
    simulator,
    n: int,
    seed: int,
    with_noise: bool = True,
    chunk_size: int = 2048,
) -> dict:
    """The canonical generating config of one synthetic NMR dataset.

    ``chunk_size`` is part of the key because chunking changes the RNG
    consumption order of the per-chunk noise draws.
    """
    axis = simulator.models.axis
    models = [
        {
            "name": model.name,
            "peaks": [dataclasses.asdict(peak) for peak in model.peaks],
        }
        for model in simulator.models.models
    ]
    return {
        "kind": "nmr_dataset",
        "axis": {"start": axis.start, "stop": axis.stop, "points": axis.points},
        "models": models,
        "ranges": {name: list(span) for name, span in simulator.ranges.items()},
        "shift_sigma": simulator.shift_sigma,
        "broadening_sigma": simulator.broadening_sigma,
        "noise_sigma": simulator.noise_sigma,
        "baseline_amplitude": simulator.baseline_amplitude,
        "phase_sigma": simulator.phase_sigma,
        "peak_jitter": simulator.peak_jitter,
        "n": int(n),
        "seed": int(seed),
        "with_noise": bool(with_noise),
        "chunk_size": int(chunk_size),
    }


def generate_ms_dataset(
    simulator,
    compound_names: Sequence[str],
    n: int,
    seed: int,
    cache: Optional[ArtifactCache] = None,
    normalize: str = "max",
    with_noise: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Mapping]:
    """Generate (or reload) a labelled simulated MS dataset.

    Returns ``(x, y, info)`` where ``info`` records the cache ``key`` and
    whether this call was a ``hit``.  Without a cache the generator runs
    directly and ``info["hit"]`` is False.
    """
    config = ms_dataset_config(
        simulator, compound_names, n, seed, normalize=normalize,
        with_noise=with_noise,
    )

    def produce():
        x, y = simulator.generate_dataset(
            compound_names, n, np.random.default_rng(seed),
            normalize=normalize, with_noise=with_noise,
        )
        return {"x": x, "y": y}

    arrays, key, hit = get_or_compute(cache, config, produce)
    return arrays["x"], arrays["y"], {"key": key, "hit": hit}


def generate_nmr_dataset(
    simulator,
    n: int,
    seed: int,
    cache: Optional[ArtifactCache] = None,
    with_noise: bool = True,
    chunk_size: int = 2048,
) -> Tuple[np.ndarray, np.ndarray, Mapping]:
    """Generate (or reload) a labelled synthetic NMR dataset.

    Same contract as :func:`generate_ms_dataset`.
    """
    config = nmr_dataset_config(
        simulator, n, seed, with_noise=with_noise, chunk_size=chunk_size
    )

    def produce():
        x, y = simulator.generate_dataset(
            n, np.random.default_rng(seed),
            with_noise=with_noise, chunk_size=chunk_size,
        )
        return {"x": x, "y": y}

    arrays, key, hit = get_or_compute(cache, config, produce)
    return arrays["x"], arrays["y"], {"key": key, "hit": hit}
