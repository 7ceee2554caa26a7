"""Checkpoint/resume for unattended training, on verified storage.

The paper's Tool 4 runs "without user interaction" — which means nobody is
watching when the process dies three topologies into a sweep, and nobody
notices when the disk quietly returns different bytes than were written.
A :class:`CheckpointManager` persists models (architecture + weights +
optimizer state + a JSON state payload) in the one model file layout of
:mod:`repro.nn.serialization` — a checksummed
:mod:`repro.storage.integrity` archive — keeps the last N *generations*
per name, verifies every load, falls back to the newest generation that
still verifies, and quarantines unreadable files instead of crashing on —
or silently reusing — them.
:class:`~repro.core.training_service.TrainingService` writes one final
snapshot per topology, ``state={"completed": True, "metrics", "epoch"}``,
so ``train_all(resume=True)`` reloads every finished topology of a killed
sweep from its newest verified generation and retrains the rest.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer
from repro.nn.serialization import model_archive, model_from_archive
from repro.observability.metrics import MetricsRegistry
from repro.observability.runtime import get_registry
from repro.storage.integrity import (
    CorruptArtifactError,
    StorageError,
    quarantine,
    read_archive,
    write_archive,
)

__all__ = ["CheckpointData", "CheckpointManager"]

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

    Model checkpoint generations (``<name>.gen-<NNNNNN>.ckpt`` model files
    via :meth:`save`/:meth:`load`) live next to a ``quarantine/``
    subdirectory where files that fail verification are moved — never
    deleted — for post-mortem analysis.

    ``generations`` bounds how many verified snapshots survive per name
    (oldest pruned first); ``on_event`` receives ``(kind, detail)`` for
    every ``"quarantine"`` and ``"fallback"`` so callers can log them to
    provenance.
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

    def generations_of(self, name: str) -> List[int]:
        """Generation numbers on disk for ``name``, oldest first."""
        self.check_name(name)
        found = []
        for entry in os.listdir(self.directory):
            match = _GENERATION_RE.match(entry)
            if match and match.group("name") == name:
                found.append(int(match.group("generation")))
        return sorted(found)

    def path(self, name: str) -> str:
        """Path of the newest generation (or where the first would go)."""
        generations = self.generations_of(name)
        return self._generation_path(name, generations[-1] if generations else 1)

    def exists(self, name: str) -> bool:
        return bool(self.generations_of(name))

    def names(self) -> List[str]:
        found = set()
        for entry in os.listdir(self.directory):
            match = _GENERATION_RE.match(entry)
            if match:
                found.add(match.group("name"))
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

    def _quarantine(self, path: str, reason: str) -> None:
        """Move an unreadable file aside (never delete it) and report it."""
        destination = quarantine(path, self.quarantine_dir)
        if destination is None:
            return
        self._m_quarantines.inc()
        self._emit(
            "quarantine",
            {"file": os.path.basename(path),
             "quarantined_as": os.path.basename(destination),
             "reason": reason},
        )

    # -- model checkpoints ---------------------------------------------------

    def save(
        self,
        name: str,
        model: Sequential,
        state: Optional[dict] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> str:
        """Persist a new generation; prunes old ones past ``generations``."""
        self.check_name(name)
        generations = self.generations_of(name)
        generation = (generations[-1] + 1) if generations else 1
        target = self._generation_path(name, generation)
        with self._m_save_seconds.time():
            size = write_archive(
                target, *model_archive(model, state, optimizer), fsync=self.fsync
            )
        self._m_saves.inc()
        self._m_bytes.inc(size)
        self.prune(name)
        return target

    def prune(self, name: str) -> List[str]:
        """Delete the oldest generations beyond ``generations``."""
        removed = []
        for generation in self.generations_of(name)[: -self.generations]:
            path = self._generation_path(name, generation)
            os.remove(path)
            removed.append(path)
        return removed

    def load(self, name: str, seed: int = 0) -> CheckpointData:
        """Rebuild model/optimizer from the newest generation that verifies.

        Generations are tried newest-first; each candidate that fails
        checksum/format verification is moved to ``quarantine/`` and the
        next is tried.  Falling back past the newest generation emits a
        ``"fallback"`` event.  Raises
        :class:`~repro.storage.integrity.CorruptArtifactError` only when no
        candidate verifies.
        """
        generations = self.generations_of(name)[::-1]
        if not generations:
            raise FileNotFoundError(f"no checkpoint named {name!r}")
        failures = []
        for index, generation in enumerate(generations):
            path = self._generation_path(name, generation)
            try:
                arrays, docs = read_archive(path)
            except (StorageError, OSError) as error:
                reason = f"{type(error).__name__}: {error}"
                failures.append(reason)
                self._quarantine(path, reason)
                continue
            model, state, optimizer = model_from_archive(arrays, docs, seed=seed)
            fell_back = index > 0
            if fell_back:
                self._m_fallbacks.inc()
                self._emit(
                    "fallback",
                    {"name": name, "generation": generation,
                     "skipped": index},
                )
            self._m_loads.inc(result="fallback" if fell_back else "ok")
            return CheckpointData(
                model=model, state=state, optimizer=optimizer,
                generation=generation, fell_back=fell_back,
            )
        self._m_loads.inc(result="corrupt")
        raise CorruptArtifactError(
            f"no verifiable checkpoint generation for {name!r}: "
            + "; ".join(failures)
        )

    def delete(self, name: str) -> None:
        for generation in self.generations_of(name):
            os.remove(self._generation_path(name, generation))

    @staticmethod
    def check_name(name: str) -> None:
        """Raise ``ValueError`` unless ``name`` can name a checkpoint."""
        if not name or os.sep in name or (os.altsep and os.altsep in name):
            raise ValueError(f"invalid checkpoint name {name!r}")
