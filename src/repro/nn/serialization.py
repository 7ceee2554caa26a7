"""Model save/load: the one model file layout.

A model file is a :mod:`repro.storage.integrity` archive — a checksummed
envelope around named arrays and JSON documents — laid out as:

* ``__config__`` — the architecture (:func:`model_to_dict`);
* ``__state__`` — always ``{}``, kept so older readers still open new
  files;
* ``w0000``, ``w0001``, ... — the weights (:func:`weights_to_arrays`).

Every model file verifies on load, and :func:`load_model` ignores any
other array or document, so files that also carry an optimizer
(``__optimizer__`` and ``opt:*`` arrays) still load.  This plays the role
of the paper's "tool to export the desired ANN for use on embedded
platforms" and feeds the database-backed provenance tracking (models are
artifacts like any other).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.nn.layers import LAYER_REGISTRY
from repro.nn.model import Sequential
from repro.storage.integrity import read_archive, write_archive

__all__ = [
    "clone_model",
    "save_model",
    "load_model",
    "model_archive",
    "model_from_archive",
    "model_to_dict",
    "model_from_dict",
    "weights_to_arrays",
    "weights_from_arrays",
]

def model_to_dict(model: Sequential) -> dict:
    """Architecture (not weights) as a JSON-serializable dict."""
    if not model.built:
        raise ValueError("only built models can be serialized")
    return model.get_config()


def model_from_dict(config: dict, seed: int = 0) -> Sequential:
    """Rebuild an (unweighted) model from :func:`model_to_dict` output."""
    model = Sequential(name=config.get("name", "model"))
    for entry in config["layers"]:
        cls = LAYER_REGISTRY.get(entry["class"])
        if cls is None:
            raise ValueError(f"unknown layer class {entry['class']!r}")
        model.add(cls(**entry["config"]))
    input_shape = config.get("input_shape")
    if input_shape is None:
        raise ValueError("config is missing input_shape")
    model.build(tuple(input_shape), seed=seed)
    return model


def clone_model(model: Sequential, seed: int = 0) -> Sequential:
    """An independent copy: same architecture, copied weights, no optimizer.

    Fine-tuning and shadow candidates must never mutate the serving
    model's arrays in place, so the clone deep-copies every weight.
    """
    clone = model_from_dict(model_to_dict(model), seed=seed)
    clone.set_weights([np.array(w, copy=True) for w in model.get_weights()])
    return clone


def weights_to_arrays(weights: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
    """``{"w0000": w0, ...}``: the one weight encoding of model files and
    cached weights."""
    return {f"w{i:04d}": weight for i, weight in enumerate(weights)}


def weights_from_arrays(arrays: Mapping[str, np.ndarray]) -> List[np.ndarray]:
    """Inverse of :func:`weights_to_arrays`; other names are skipped."""
    return [arrays[name] for name in sorted(arrays) if name.startswith("w")]


def model_archive(
    model: Sequential,
) -> Tuple[Dict[str, np.ndarray], Dict[str, dict]]:
    """``(arrays, docs)`` of a model file, for
    :func:`~repro.storage.integrity.write_archive`."""
    arrays = weights_to_arrays(model.get_weights())
    return arrays, {"config": model_to_dict(model), "state": {}}


def model_from_archive(
    arrays: Mapping[str, np.ndarray], docs: Mapping[str, dict], seed: int = 0
) -> Sequential:
    """Inverse of :func:`model_archive`; other arrays and documents are
    ignored."""
    model = model_from_dict(docs["config"], seed=seed)
    model.set_weights(weights_from_arrays(arrays))
    return model


def save_model(model: Sequential, path: Union[str, os.PathLike]) -> str:
    """Save architecture + weights to ``path`` as a model file.

    ``.npz`` is appended to a path without that suffix.  The write is
    atomic and checksummed: an interrupted save cannot corrupt an existing
    file at the same path, and :func:`load_model` refuses damaged bytes.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    write_archive(path, *model_archive(model))
    return path


def load_model(path: Union[str, os.PathLike]) -> Sequential:
    """Load a :func:`save_model` file.  Damaged bytes raise
    :class:`~repro.storage.integrity.CorruptArtifactError`."""
    return model_from_archive(*read_archive(path))
