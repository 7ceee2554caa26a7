"""Cache-aware wrapper around the bulk MS dataset generator.

The MS simulator is a pure function of its configuration and a seed, which
makes its output perfectly cacheable: :func:`ms_dataset_config` derives the
canonical generating config — every parameter that can change a byte of
the output — and :func:`generate_ms_dataset` routes generation through an
:class:`~repro.compute.cache.ArtifactCache`.  No NMR path caches its
datasets.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compute.cache import ArtifactCache, get_or_compute

__all__ = ["ms_dataset_config", "generate_ms_dataset"]


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
