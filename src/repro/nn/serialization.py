"""Model save/load.

A model is stored as a single ``.npz`` archive containing a JSON
architecture spec plus every weight array.  This plays the role of the
paper's "tool to export the desired ANN for use on embedded platforms" and
feeds the database-backed provenance tracking (models are artifacts like
any other).
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from repro.nn.layers import LAYER_REGISTRY
from repro.nn.model import Sequential
from repro.storage.integrity import atomic_write_bytes

__all__ = [
    "atomic_savez",
    "clone_model",
    "save_model",
    "load_model",
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
    """``{"w0000": w0, ...}``: the one weight encoding of model files,
    checkpoints and cached cell weights."""
    return {f"w{i:04d}": weight for i, weight in enumerate(weights)}


def weights_from_arrays(arrays: Mapping[str, np.ndarray]) -> List[np.ndarray]:
    """Inverse of :func:`weights_to_arrays`; other names are skipped."""
    return [arrays[name] for name in sorted(arrays) if name.startswith("w")]


def atomic_savez(
    path: Union[str, os.PathLike],
    arrays: Dict[str, np.ndarray],
    fsync: bool = True,
) -> str:
    """Write an ``.npz`` archive crash-safely (and, by default, durably).

    The archive bytes are staged in memory and published through
    :func:`repro.storage.integrity.atomic_write_bytes` — temp file, flush,
    fsync, rename, directory fsync — so a crash mid-save never leaves a
    truncated or corrupt file at ``path`` and an acknowledged save
    survives power loss.  Readers observe either the previous complete
    archive or the new one.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue(), fsync=fsync)


def save_model(model: Sequential, path: Union[str, os.PathLike]) -> str:
    """Save architecture + weights to ``path`` (a ``.npz`` file).

    The write is atomic (see :func:`atomic_savez`): an interrupted save
    cannot corrupt an existing checkpoint at the same path.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    arrays = {"__config__": np.frombuffer(
        json.dumps(model_to_dict(model)).encode("utf-8"), dtype=np.uint8
    )}
    arrays.update(weights_to_arrays(model.get_weights()))
    return atomic_savez(path, arrays)


def load_model(path: Union[str, os.PathLike]) -> Sequential:
    """Load a model saved by :func:`save_model`."""
    with np.load(os.fspath(path)) as data:
        config = json.loads(bytes(data["__config__"].tobytes()).decode("utf-8"))
        weights = weights_from_arrays(data)
    model = model_from_dict(config)
    model.set_weights(weights)
    return model
