"""Checkpoint/resume for unattended training, on verified storage.

The paper's Tool 4 runs "without user interaction" — which means nobody is
watching when the process dies three topologies into a sweep, and nobody
notices when the disk quietly returns different bytes than were written.
A :class:`CheckpointManager` persists models (architecture + weights +
optimizer state + a JSON state payload) as checksummed
:mod:`repro.storage.integrity` envelopes, keeps the last N *generations*
per name, verifies every load, falls back to the newest generation that
still verifies, and quarantines unreadable files instead of crashing on —
or silently reusing — them.  The :class:`Checkpoint` callback snapshots a
model periodically during ``fit``;
:class:`~repro.core.training_service.TrainingService` builds on both so
``train_all(resume=True)`` restarts a killed sweep from the last verified
state.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.nn.serialization import (
    model_from_dict, model_to_dict, weights_from_arrays, weights_to_arrays,
)
from repro.nn.training import Callback
from repro.observability.metrics import MetricsRegistry
from repro.observability.runtime import get_registry
from repro.storage.integrity import (
    CorruptArtifactError,
    SchemaVersionError,
    atomic_write_bytes,
    read_envelope,
    write_envelope,
)

__all__ = ["CheckpointData", "CheckpointManager", "Checkpoint"]

_OPT_PREFIX = "opt:"
QUARANTINE_DIR = "quarantine"
_GENERATION_RE = re.compile(r"^(?P<name>.+)\.gen-(?P<generation>\d+)\.ckpt$")


@dataclass
class CheckpointData:
    """Everything :meth:`CheckpointManager.load` restores."""

    model: Sequential
    state: Dict[str, object]
    optimizer: Optional[Optimizer] = None
    generation: Optional[int] = None
    fell_back: bool = False


class CheckpointManager:
    """Named, verified, generational training checkpoints in one directory.

    Three kinds of entries live side by side: model checkpoint generations
    (``<name>.gen-<NNNNNN>.ckpt`` envelopes via :meth:`save`/:meth:`load`),
    small JSON state documents (``<name>.json`` via
    :meth:`save_state`/:meth:`load_state`, used e.g. for sweep progress)
    and a ``quarantine/`` subdirectory where files that fail verification
    are moved — never deleted — for post-mortem analysis.

    ``generations`` bounds how many verified snapshots survive per name
    (oldest pruned first); ``on_event`` receives ``(kind, detail)`` for
    every ``"quarantine"`` and ``"fallback"`` so callers can log them to
    provenance.  Legacy bare ``<name>.npz`` checkpoints written before the
    envelope format are still readable (tried last, after every
    generation).
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        generations: int = 3,
        fsync: bool = True,
        on_event: Optional[Callable[[str, dict], None]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        self.directory = os.fspath(directory)
        self.generations = int(generations)
        self.fsync = bool(fsync)
        self.on_event = on_event
        registry = registry if registry is not None else get_registry()
        self._m_saves = registry.counter(
            "checkpoint_saves_total", "checkpoint generations written"
        )
        self._m_loads = registry.counter(
            "checkpoint_loads_total", "checkpoint loads by result"
        )
        self._m_quarantines = registry.counter(
            "checkpoint_quarantines_total",
            "files moved to quarantine after failed verification",
        )
        self._m_fallbacks = registry.counter(
            "checkpoint_fallbacks_total",
            "loads served by an older generation",
        )
        self._m_save_seconds = registry.histogram(
            "checkpoint_save_seconds",
            "envelope write time (serialize + fsync) per save",
        )
        self._m_bytes = registry.counter(
            "checkpoint_bytes_written_total", "payload bytes persisted"
        )
        os.makedirs(self.directory, exist_ok=True)

    # -- events --------------------------------------------------------------

    def _emit(self, kind: str, detail: dict) -> None:
        if self.on_event is not None:
            self.on_event(kind, detail)

    # -- paths & generations -------------------------------------------------

    def _generation_path(self, name: str, generation: int) -> str:
        return os.path.join(self.directory, f"{name}.gen-{generation:06d}.ckpt")

    def _legacy_path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.npz")

    def generations_of(self, name: str) -> List[int]:
        """Generation numbers on disk for ``name``, oldest first."""
        self._check_name(name)
        found = []
        for entry in os.listdir(self.directory):
            match = _GENERATION_RE.match(entry)
            if match and match.group("name") == name:
                found.append(int(match.group("generation")))
        return sorted(found)

    def path(self, name: str) -> str:
        """Path of the newest generation (or where the first would go)."""
        generations = self.generations_of(name)
        if generations:
            return self._generation_path(name, generations[-1])
        legacy = self._legacy_path(name)
        if os.path.exists(legacy):
            return legacy
        return self._generation_path(name, 1)

    def exists(self, name: str) -> bool:
        return bool(self.generations_of(name)) or os.path.exists(
            self._legacy_path(name)
        )

    def names(self) -> List[str]:
        found = set()
        for entry in os.listdir(self.directory):
            match = _GENERATION_RE.match(entry)
            if match:
                found.add(match.group("name"))
            elif entry.endswith(".npz") and not entry.startswith(".tmp-"):
                found.add(entry[:-4])
        return sorted(found)

    # -- quarantine ----------------------------------------------------------

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def quarantined(self) -> List[str]:
        """Basenames currently held in quarantine."""
        if not os.path.isdir(self.quarantine_dir):
            return []
        return sorted(os.listdir(self.quarantine_dir))

    def _quarantine(self, path: str, reason: str) -> Optional[str]:
        """Move an unreadable file aside (never delete it)."""
        if not os.path.exists(path):
            return None
        os.makedirs(self.quarantine_dir, exist_ok=True)
        base = os.path.basename(path)
        for attempt in itertools.count():
            suffix = "" if attempt == 0 else f".{attempt}"
            destination = os.path.join(self.quarantine_dir, base + suffix)
            if not os.path.exists(destination):
                break
        os.replace(path, destination)
        self._m_quarantines.inc()
        self._emit(
            "quarantine",
            {"file": base, "quarantined_as": os.path.basename(destination),
             "reason": reason},
        )
        return destination

    # -- model checkpoints ---------------------------------------------------

    def save(
        self,
        name: str,
        model: Sequential,
        state: Optional[dict] = None,
        optimizer: Optional[Optimizer] = None,
        keep: Optional[int] = None,
    ) -> str:
        """Persist a new generation; prunes old ones past the retention cap.

        ``keep`` overrides the manager-wide ``generations`` retention for
        this save (e.g. the :class:`Checkpoint` callback's ``keep=``).
        """
        self._check_name(name)
        arrays = {
            "__config__": _json_array(model_to_dict(model)),
            "__state__": _json_array(dict(state or {})),
        }
        arrays.update(weights_to_arrays(model.get_weights()))
        if optimizer is not None:
            opt_state = optimizer.get_state()
            arrays["__optimizer__"] = _json_array(
                {
                    "config": optimizer.get_config(),
                    "iterations": opt_state["iterations"],
                }
            )
            for slot, entries in opt_state["slots"].items():
                for (layer, param), value in entries.items():
                    arrays[f"{_OPT_PREFIX}{slot}:{layer}:{param}"] = value
        generations = self.generations_of(name)
        generation = (generations[-1] + 1) if generations else 1
        target = self._generation_path(name, generation)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        with self._m_save_seconds.time():
            write_envelope(target, payload, fsync=self.fsync)
        self._m_saves.inc()
        self._m_bytes.inc(len(payload))
        self.prune(name, keep=keep)
        return target

    def prune(self, name: str, keep: Optional[int] = None) -> List[str]:
        """Delete the oldest generations beyond the retention cap."""
        limit = self.generations if keep is None else int(keep)
        if limit < 1:
            raise ValueError(f"keep must be >= 1, got {limit}")
        generations = self.generations_of(name)
        removed = []
        for generation in generations[: max(len(generations) - limit, 0)]:
            path = self._generation_path(name, generation)
            os.remove(path)
            removed.append(path)
        return removed

    def load(self, name: str, seed: int = 0) -> CheckpointData:
        """Rebuild model/optimizer from the newest generation that verifies.

        Generations are tried newest-first (then a legacy bare ``.npz`` if
        present); each candidate that fails checksum/format verification is
        moved to ``quarantine/`` and the next is tried.  Falling back past
        the newest generation emits a ``"fallback"`` event.  Raises
        :class:`~repro.storage.integrity.CorruptArtifactError` only when no
        candidate verifies.
        """
        candidates = self._candidates(name)
        if not candidates:
            raise FileNotFoundError(f"no checkpoint named {name!r}")
        failures = []
        for index, (generation, path) in enumerate(candidates):
            try:
                arrays = self._read_arrays(path)
            except (CorruptArtifactError, SchemaVersionError, OSError,
                    ValueError, KeyError) as error:
                reason = f"{type(error).__name__}: {error}"
                failures.append(reason)
                self._quarantine(path, reason)
                continue
            data = self._restore(arrays, seed=seed)
            data.generation = generation
            data.fell_back = index > 0
            if data.fell_back:
                self._m_fallbacks.inc()
                self._emit(
                    "fallback",
                    {"name": name, "generation": generation,
                     "skipped": index},
                )
            self._m_loads.inc(result="fallback" if data.fell_back else "ok")
            return data
        self._m_loads.inc(result="corrupt")
        raise CorruptArtifactError(
            f"no verifiable checkpoint generation for {name!r}: "
            + "; ".join(failures)
        )

    def _candidates(self, name: str) -> List[Tuple[Optional[int], str]]:
        """(generation, path) pairs to try, newest first; legacy last."""
        candidates: List[Tuple[Optional[int], str]] = [
            (generation, self._generation_path(name, generation))
            for generation in reversed(self.generations_of(name))
        ]
        legacy = self._legacy_path(name)
        if os.path.exists(legacy):
            candidates.append((None, legacy))
        return candidates

    @staticmethod
    def _read_arrays(path: str) -> Dict[str, np.ndarray]:
        if path.endswith(".ckpt"):
            payload = read_envelope(path)
            source: Union[str, io.BytesIO] = io.BytesIO(payload)
        else:  # legacy bare .npz — no checksum, parse errors become typed
            source = path
        try:
            with np.load(source, allow_pickle=False) as data:
                return {key: data[key] for key in data.files}
        except (CorruptArtifactError, SchemaVersionError):
            raise
        except Exception as error:
            raise CorruptArtifactError(
                f"unreadable checkpoint archive {path}: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _restore(self, arrays: Dict[str, np.ndarray], seed: int) -> CheckpointData:
        config = _json_load(arrays["__config__"])
        # Legacy save_model archives carry no state payload.
        state = (
            _json_load(arrays["__state__"]) if "__state__" in arrays else {}
        )
        weights = weights_from_arrays(arrays)
        optimizer = None
        if "__optimizer__" in arrays:
            payload = _json_load(arrays["__optimizer__"])
            optimizer = get_optimizer(payload["config"])
            slots: Dict[str, Dict[tuple, np.ndarray]] = {}
            for key in arrays:
                if not key.startswith(_OPT_PREFIX):
                    continue
                slot, layer, param = key[len(_OPT_PREFIX):].split(":", 2)
                slots.setdefault(slot, {})[(int(layer), param)] = arrays[key]
            optimizer.set_state(
                {"iterations": payload["iterations"], "slots": slots}
            )
        model = model_from_dict(config, seed=seed)
        model.set_weights(weights)
        return CheckpointData(model=model, state=state, optimizer=optimizer)

    def delete(self, name: str) -> None:
        for generation in self.generations_of(name):
            os.remove(self._generation_path(name, generation))
        legacy = self._legacy_path(name)
        if os.path.exists(legacy):
            os.remove(legacy)

    # -- JSON state documents ------------------------------------------------

    def state_path(self, name: str) -> str:
        self._check_name(name)
        return os.path.join(self.directory, f"{name}.json")

    def save_state(self, name: str, payload: dict) -> str:
        """Atomically persist a small JSON document (sweep progress etc.)."""
        target = self.state_path(name)
        data = json.dumps(payload, default=float).encode("utf-8")
        return atomic_write_bytes(target, data, fsync=self.fsync)

    def load_state(self, name: str) -> Optional[dict]:
        """The stored document, or None if it was never saved.

        A sidecar that exists but does not parse (empty, truncated,
        garbage) is quarantined and reported as a typed
        :class:`~repro.storage.integrity.CorruptArtifactError` — callers
        decide whether to start fresh, never a raw ``JSONDecodeError``.
        """
        target = self.state_path(name)
        if not os.path.exists(target):
            return None
        try:
            with open(target, "rb") as handle:
                return json.loads(handle.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            reason = f"{type(error).__name__}: {error}"
            self._quarantine(target, reason)
            raise CorruptArtifactError(
                f"corrupt state sidecar {target}: {reason}"
            ) from error

    def delete_state(self, name: str) -> None:
        target = self.state_path(name)
        if os.path.exists(target):
            os.remove(target)

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or os.sep in name or (os.altsep and os.altsep in name):
            raise ValueError(f"invalid checkpoint name {name!r}")


class Checkpoint(Callback):
    """Training callback: snapshot the model every ``every`` epochs.

    The snapshot carries ``{"epoch": n, "metrics": {...}}`` plus the live
    optimizer state, so a killed ``fit`` can be resumed bit-exactly with
    ``fit(..., initial_epoch=n)`` after restoring weights and optimizer.

    ``keep`` bounds how many snapshot generations this callback retains
    for its name, delegating to the manager's generation GC; the default
    ``None`` adds no pruning of its own (the manager-wide retention still
    applies), preserving the old callback's behaviour.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        name: str,
        every: int = 1,
        save_optimizer: bool = True,
        on_save=None,
        keep: Optional[int] = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.manager = manager
        self.checkpoint_name = name
        self.every = int(every)
        self.save_optimizer = bool(save_optimizer)
        self.on_save = on_save  # called with (path, epoch) after each save
        self.keep = keep
        self.last_saved_epoch: Optional[int] = None

    def on_epoch_end(self, epoch, metrics):
        if epoch % self.every != 0:
            return
        path = self.manager.save(
            self.checkpoint_name,
            self.model,
            state={
                "epoch": int(epoch),
                "metrics": {k: float(v) for k, v in metrics.items()},
            },
            optimizer=self.model.optimizer if self.save_optimizer else None,
            keep=self.keep,
        )
        self.last_saved_epoch = int(epoch)
        if self.on_save is not None:
            self.on_save(path, int(epoch))


def _json_array(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload, default=float).encode("utf-8"),
                         dtype=np.uint8)


def _json_load(array: np.ndarray) -> dict:
    return json.loads(bytes(array.tobytes()).decode("utf-8"))
