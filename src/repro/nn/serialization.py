"""Model save/load: the one model file layout.

A model file is a :mod:`repro.storage.integrity` archive — a checksummed
envelope around named arrays and JSON documents — laid out as:

* ``__config__`` — the architecture (:func:`model_to_dict`);
* ``__state__`` — the writer's JSON state (``{}`` for a plain export);
* ``w0000``, ``w0001``, ... — the weights (:func:`weights_to_arrays`);
* with an optimizer, ``__optimizer__`` (its config and iteration count)
  and one ``opt:<slot>:<layer>:<param>`` array per slot.

:func:`save_model`/:func:`load_model` and
:class:`~repro.reliability.checkpoint.CheckpointManager` generations share
it, so every model file verifies on load and :func:`load_model` opens a
checkpoint generation as readily as an export.  This plays the role of
the paper's "tool to export the desired ANN for use on embedded
platforms" and feeds the database-backed provenance tracking (models are
artifacts like any other).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.layers import LAYER_REGISTRY
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer, get_optimizer
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

_OPT_PREFIX = "opt:"


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


def model_archive(
    model: Sequential,
    state: Optional[dict] = None,
    optimizer: Optional[Optimizer] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, dict]]:
    """``(arrays, docs)`` of a model file, for
    :func:`~repro.storage.integrity.write_archive`."""
    arrays = weights_to_arrays(model.get_weights())
    docs = {"config": model_to_dict(model), "state": dict(state or {})}
    if optimizer is not None:
        opt_state = optimizer.get_state()
        docs["optimizer"] = {
            "config": optimizer.get_config(),
            "iterations": opt_state["iterations"],
        }
        for slot, entries in opt_state["slots"].items():
            for (layer, param), value in entries.items():
                arrays[f"{_OPT_PREFIX}{slot}:{layer}:{param}"] = value
    return arrays, docs


def model_from_archive(
    arrays: Mapping[str, np.ndarray], docs: Mapping[str, dict], seed: int = 0
) -> Tuple[Sequential, dict, Optional[Optimizer]]:
    """Inverse of :func:`model_archive`: ``(model, state, optimizer)``;
    ``optimizer`` is None when the file carries none."""
    model = model_from_dict(docs["config"], seed=seed)
    model.set_weights(weights_from_arrays(arrays))
    optimizer = None
    if "optimizer" in docs:
        optimizer = get_optimizer(docs["optimizer"]["config"])
        slots: Dict[str, Dict[tuple, np.ndarray]] = {}
        for key, value in arrays.items():
            if key.startswith(_OPT_PREFIX):
                slot, layer, param = key[len(_OPT_PREFIX):].split(":", 2)
                slots.setdefault(slot, {})[(int(layer), param)] = value
        optimizer.set_state(
            {"iterations": docs["optimizer"]["iterations"], "slots": slots}
        )
    return model, docs["state"], optimizer


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
    """Load a model file: a :func:`save_model` export or a checkpoint
    generation.  Damaged bytes raise
    :class:`~repro.storage.integrity.CorruptArtifactError`."""
    return model_from_archive(*read_archive(path))[0]
