"""Unattended multi-topology training (Tool 4's front- and backend).

"The tools that assist in the definition phase allow the definition of one
or more network topologies and the training- and validation datasets to use
without modifying the source code.  The whole training process can then run
without user interaction.  Backend tools help with the evaluation of the
trained networks ..., the selection of the best-performing networks, based
on selectable quality criteria and the export of analysis data to
spreadsheet applications."

Every model the package trains from scratch is built, compiled and fitted
by :func:`train_cell` from one :class:`TrainingConfig`.  Its callers
differ only in the config they build and in how they score the model:
:class:`TrainingService`, ``MSToolchain.train_network``, campaign cells,
drift-matrix models, ensemble members and ``repro train``.  The drift
matrix's fine-tune strategy stays apart: it continues training a clone of
an already-trained model, so there is no topology to build at a seed.

Every topology trains as one :func:`_train_topology` task on the service's
executor through :func:`~repro.compute.executor.run_grid`.  The parent
reuses each topology whose cache entry verifies and finishes each trained
one after its wave (rollback provenance, cache entry, ``network`` record),
so serial/thread/process sweeps produce byte-identical models, optimizer
state, metrics and :meth:`TrainingService.select_best` outcomes.  A task
that dies becomes a typed :class:`FailedRun` in
:attr:`TrainingService.failures` — recorded in provenance and metrics,
never fatal to the sweep.

On the ``process`` backend the sweep saves its arrays once, at its first
cache miss, as ``.npy`` files in a temporary directory that lives exactly as
long as the sweep; each task maps them read-only
(``np.load(mmap_mode="r")``), so every worker shares one page-cache copy
and computes on the same bytes as a serial run.  Serial and thread tasks
get the caller's arrays.

Because the process runs without user interaction, it must also survive
without one.  Given an :class:`~repro.compute.cache.ArtifactCache`,
entries are keyed by content — the topology's name and layers, the
:class:`TrainingConfig` and a digest of the training (and evaluation)
data — so re-running a killed sweep is the resume and ends with exactly
the metrics and weights of an uninterrupted one, and a result is only
ever reused for the inputs that produced it.  A corrupt entry is
quarantined by the cache and its topology retrains to the same bytes.
Every resume, rollback and failure is recorded in the
:class:`ProvenanceTracker`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compute.cache import ArtifactCache, canonical_key
from repro.compute.executor import ParallelExecutor, TaskFailure, run_grid
from repro.core.datasets import SpectraDataset
from repro.core.topologies import TopologySpec
from repro.db.provenance import ProvenanceTracker
from repro.nn.layers.base import _positive_int, _positive_rate
from repro.nn.metrics import mean_absolute_error, mean_squared_error, r2_score
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, get_optimizer
from repro.nn.sentinel import DivergenceSentinel, SentinelEvent
from repro.nn.serialization import weights_from_arrays, weights_to_arrays
from repro.nn.training import EarlyStopping, History, predict_rows
from repro.observability.runtime import counter as _counter
from repro.observability.runtime import get_tracer

__all__ = [
    "TrainingConfig", "TrainingRun", "FailedRun", "TrainingService",
    "train_cell", "training_run_config",
]


@dataclass(frozen=True)
class TrainingConfig:
    """How :func:`train_cell` trains one model.

    ``Adam(learning_rate, clipnorm=clip_norm)`` on ``loss``; early stopping
    that restores the best epoch's weights if ``patience`` is set; and, if
    ``sentinel`` (the default), a :class:`~repro.nn.sentinel.DivergenceSentinel`
    that rolls a run going non-finite back to its last-good state with a
    halved learning rate, at most ``sentinel_max_rollbacks`` times.
    ``epochs``, ``batch_size`` and ``sentinel_max_rollbacks`` must be whole
    numbers >= 1, ``patience``, if set, >= 0, and ``learning_rate``
    positive and finite.
    """

    epochs: int = 30
    batch_size: int = 64
    loss: str = "mae"
    train_fraction: float = 0.8
    patience: Optional[int] = 8
    seed: int = 0
    clip_norm: Optional[float] = None
    sentinel: bool = True
    sentinel_max_rollbacks: int = 5
    learning_rate: float = 0.001

    def __post_init__(self):
        for name in ("epochs", "batch_size", "sentinel_max_rollbacks"):
            _positive_int(name, getattr(self, name))
        _positive_rate("learning_rate", self.learning_rate)
        if self.patience is not None and not self.patience >= 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive")


def train_cell(
    config: TrainingConfig, topology: TopologySpec, x: np.ndarray,
    y: np.ndarray, rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    verbose: bool = False,
) -> Tuple[Sequential, History, List[SentinelEvent]]:
    """Build ``topology`` at ``config.seed``, compile and fit it on
    ``rows=(train_rows, validation_rows)`` as in ``Sequential.fit`` (None:
    every row trains).  Returns the model, its history and the divergence
    sentinel's rollback events (empty without a sentinel)."""
    model = topology.build(x.shape[1:], seed=config.seed)
    optimizer = Adam(config.learning_rate, clipnorm=config.clip_norm)
    model.compile(optimizer, config.loss)
    callbacks = []
    if config.patience is not None:
        callbacks.append(
            EarlyStopping(patience=config.patience, restore_best_weights=True)
        )
    sentinel: Optional[DivergenceSentinel] = None
    if config.sentinel:
        sentinel = DivergenceSentinel(max_rollbacks=config.sentinel_max_rollbacks)
        callbacks.append(sentinel)
    history = model.fit(
        x, y, epochs=config.epochs, batch_size=config.batch_size, rows=rows,
        callbacks=callbacks, seed=config.seed, verbose=verbose,
    )
    return model, history, sentinel.events if sentinel is not None else []


@dataclass
class TrainingRun:
    """Result of training one topology."""

    topology_name: str
    model: Sequential
    metrics: Dict[str, float]
    epochs_run: int
    artifact_id: Optional[int] = None
    resumed: bool = False
    rollbacks: int = 0


@dataclass(frozen=True)
class FailedRun:
    """A topology whose training task died."""

    topology_name: str
    error_type: str
    message: str


# The arrays every task reads, in _train_topology's unpacking order.
_ARRAYS = ("x", "y", "train_rows", "val_rows", "eval_x", "eval_y")


def _mapped(value):
    """A process task gets each array as a ``.npy`` path: map it
    read-only.  Arrays (serial, thread) and ``None`` pass through."""
    return np.load(value, mmap_mode="r") if isinstance(value, str) else value


def _train_topology(payload: dict) -> dict:
    """Train one topology with :func:`train_cell` and score it.

    Module-level, with a picklable payload and result, so the process
    backend can run it in a worker.  Training determinism comes from the
    config seed on every backend.
    """
    x, y, train_rows, val_rows, eval_x, eval_y = (
        _mapped(payload[name]) for name in _ARRAYS
    )
    model, history, events = train_cell(
        payload["config"], payload["topology"], x, y, (train_rows, val_rows)
    )
    predictions = predict_rows(model, x, val_rows)
    val_y = y[val_rows]
    metrics = {
        "val_mae": mean_absolute_error(predictions, val_y),
        "val_mse": mean_squared_error(predictions, val_y),
        "val_r2": r2_score(predictions, val_y),
    }
    if eval_x is not None:
        measured = model.predict(eval_x)
        metrics["measured_mae"] = mean_absolute_error(measured, eval_y)
        metrics["measured_mse"] = mean_squared_error(measured, eval_y)
    return {
        "weights": model.get_weights(),
        "optimizer": model.optimizer.get_config(),
        "optimizer_state": model.optimizer.get_state(),
        "metrics": metrics,
        "epochs_run": len(history.epochs),
        "rollback_events": events,
    }


def training_run_config(config: TrainingConfig, data: str, topology) -> dict:
    """The canonical config one topology's cached run is keyed by."""
    return {"kind": "training_run", "config": config, "data": data,
            "topology": {"name": topology.name, "layers": topology.layers}}


def _data_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the names, shapes, dtypes and bytes of ``arrays``."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(json.dumps([name, array.shape, array.dtype.str]).encode())
        digest.update(array)
    return digest.hexdigest()


class TrainingService:
    """Trains a list of topologies on one dataset, records, ranks, exports.

    Topologies train as tasks on ``executor`` (default: one serial
    worker); failed tasks land in :attr:`failures`.  With ``cache`` set,
    running a killed sweep again resumes it.
    """

    def __init__(
        self,
        config: TrainingConfig = TrainingConfig(),
        provenance: Optional[ProvenanceTracker] = None,
        cache: Optional[ArtifactCache] = None,
        executor: Optional[ParallelExecutor] = None,
    ):
        self.config = config
        self.provenance = provenance
        self.cache = cache
        self.executor = (
            executor if executor is not None else ParallelExecutor(max_workers=1)
        )
        self.runs: List[TrainingRun] = []
        self.failures: List[FailedRun] = []

    def train_all(
        self,
        topologies: Sequence[TopologySpec],
        dataset: SpectraDataset,
        evaluation_data: Optional[SpectraDataset] = None,
        dataset_artifact: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        sweep_name: str = "sweep",
    ) -> List[TrainingRun]:
        """Train every topology without user interaction.

        ``evaluation_data``, if given, is scored as ``measured_*`` metrics
        (the paper's evaluation on real measurement series).  With a
        cache, a topology already trained on these inputs is reused —
        with exactly its recorded weights and metrics — instead of
        retrained.  ``sweep_name`` labels the sweep's span and tasks.
        """
        if not topologies:
            raise ValueError("topologies must be non-empty")
        names = [t.name for t in topologies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate topology names: {names}")
        config, executor = self.config, self.executor
        train_rows, val_rows = dataset.split_rows(
            config.train_fraction, np.random.default_rng(config.seed)
        )
        data = {"x": dataset.x, "y": dataset.y}
        if evaluation_data is not None:
            data["eval_x"] = evaluation_data.x
            data["eval_y"] = evaluation_data.y
        keys: List[Optional[str]] = [None] * len(topologies)
        if self.cache is not None:
            digest = _data_digest(data)
            keys = [canonical_key(training_run_config(config, digest, t))
                    for t in topologies]
        by_key = dict(zip(keys, topologies))
        counter = _counter(
            "training_topologies_total", "topology runs by disposition"
        )
        arrays = {
            "eval_x": None, "eval_y": None, **data,
            "train_rows": train_rows, "val_rows": val_rows,
        }
        # Owns the process backend's scratch directory, if the sweep
        # makes one: it goes when run_grid returns or raises.
        scratch = contextlib.ExitStack()

        def reuse(key: str) -> Optional[TrainingRun]:
            run = self._reuse(
                by_key[key], key, dataset.input_shape, dataset_artifact,
                progress,
            )
            if run is not None:
                counter.inc(disposition="reloaded")
            return run

        def payload(index: int) -> dict:
            if executor.backend == "process" and not isinstance(
                arrays["x"], str
            ):
                # Save each array once, at the sweep's first miss, so a
                # fully cached sweep writes nothing.  A .npy file's data
                # is 64-byte aligned, so mapped arrays compute the bytes
                # the caller's arrays would.
                directory = scratch.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-sweep-")
                )
                for name, array in arrays.items():
                    if array is not None:
                        arrays[name] = os.path.join(directory, f"{name}.npy")
                        np.save(arrays[name], array)
            if progress is not None:
                progress(f"training {topologies[index].name}")
            return {"topology": topologies[index], "config": config, **arrays}

        def on_result(index: int, result) -> None:
            if isinstance(result, TaskFailure):
                counter.inc(disposition="failed")
                self._fail(topologies[index], result, dataset_artifact, progress)
            else:
                self._finish(
                    topologies[index], result, dataset.input_shape,
                    keys[index], dataset_artifact,
                )
                counter.inc(disposition="trained")

        with scratch, get_tracer().start_span(
            "train.sweep",
            attributes={
                "sweep": sweep_name,
                "topologies": len(topologies),
                "backend": executor.backend,
            },
        ) as sweep_span:
            grid = run_grid(
                executor, _train_topology, keys, payload, reuse,
                label=f"train.{sweep_name}", on_result=on_result,
            )
            sweep_span.set_attribute("failed", grid.failed)
        return self.runs

    # -- one topology ------------------------------------------------------

    def _reuse(
        self,
        topology: TopologySpec,
        key: str,
        input_shape,
        dataset_artifact: Optional[int],
        progress: Optional[Callable[[str], None]],
    ) -> Optional[TrainingRun]:
        """The run an earlier sweep finished on these inputs, or None to
        train it.  An entry that fails verification is quarantined by the
        cache and trains from scratch."""
        corrupt = self.cache.corrupt
        entry = self.cache.get(key)
        if self.cache.corrupt > corrupt:
            self._record_event(
                "quarantine", {"topology": topology.name}, dataset_artifact
            )
        if entry is None:
            return None
        arrays, meta = entry
        if progress is not None:
            progress(f"skipping completed {topology.name}")
        metrics = {k: float(v) for k, v in meta["metrics"].items()}
        self._record_event(
            "resume",
            {"topology": topology.name, "skipped_completed": True},
            dataset_artifact,
        )
        model = topology.build(input_shape, seed=self.config.seed)
        model.set_weights(weights_from_arrays(arrays))
        return self._keep(
            topology, model, metrics, int(meta["epochs_run"]),
            dataset_artifact, resumed=True,
        )

    def _finish(
        self,
        topology: TopologySpec,
        result: dict,
        input_shape,
        key: Optional[str],
        dataset_artifact: Optional[int],
    ) -> None:
        """Rebuild a trained task's model, cache it and record the run."""
        for event in result["rollback_events"]:
            self._record_event(
                "divergence_rollback",
                {
                    "topology": topology.name,
                    "epoch": event.epoch,
                    "reason": event.reason,
                    "new_learning_rate": event.new_learning_rate,
                },
                dataset_artifact,
            )
        model = topology.build(input_shape, seed=self.config.seed)
        model.compile(get_optimizer(result["optimizer"]), self.config.loss)
        model.set_weights(result["weights"])
        model.optimizer.set_state(result["optimizer_state"])
        metrics, epochs_run = result["metrics"], result["epochs_run"]
        if key is not None:
            # The (possibly best-weights-restored) weights that were scored,
            # so a later sweep reuses exactly this result.
            self.cache.put(
                key,
                weights_to_arrays(result["weights"]),
                {"metrics": metrics, "epochs_run": epochs_run},
            )
        self._keep(
            topology, model, metrics, epochs_run, dataset_artifact,
            rollbacks=len(result["rollback_events"]),
        )

    def _keep(
        self, topology, model, metrics, epochs_run, dataset_artifact, **status
    ) -> TrainingRun:
        """Record a run as a ``network`` artifact and keep it."""
        run = TrainingRun(
            topology.name, model, metrics, epochs_run,
            artifact_id=self._record_event(
                "network", {"topology": topology.name, **metrics},
                dataset_artifact,
            ),
            **status,
        )
        self.runs.append(run)
        return run

    def _fail(
        self,
        topology: TopologySpec,
        failure: TaskFailure,
        dataset_artifact: Optional[int],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        """Record a dead task as a :class:`FailedRun` and in provenance."""
        self.failures.append(
            FailedRun(
                topology_name=topology.name,
                error_type=failure.error_type,
                message=failure.message,
            )
        )
        self._record_event(
            "topology_failed",
            {
                "topology": topology.name,
                "error_type": failure.error_type,
                "message": failure.message,
            },
            dataset_artifact,
        )
        if progress is not None:
            progress(
                f"failed {topology.name}: "
                f"{failure.error_type}: {failure.message}"
            )

    # -- provenance --------------------------------------------------------

    def _record_event(
        self, kind: str, metadata: dict, dataset_artifact: Optional[int]
    ) -> Optional[int]:
        if self.provenance is None:
            return None
        parents = [dataset_artifact] if dataset_artifact is not None else []
        return self.provenance.record(kind, metadata, parents=parents)

    # -- selection & export ------------------------------------------------

    def select_best(self, criterion: str = "val_mae", mode: str = "min") -> TrainingRun:
        """Best run by a selectable quality criterion.

        ``mode`` is ``"min"`` or ``"max"``; anything else raises
        ``ValueError``.  Raises a clear ``RuntimeError("no completed
        training runs")`` when no run ever completed (empty or
        fully-failed sweep) instead of a bare ``ValueError`` escaping from
        ``min()``, and ``KeyError`` when runs exist but none recorded
        ``criterion``.
        """
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if not self.runs:
            raise RuntimeError("no completed training runs")
        scored = [run for run in self.runs if criterion in run.metrics]
        if not scored:
            raise KeyError(f"no run has metric {criterion!r}")
        chooser = min if mode == "min" else max
        return chooser(scored, key=lambda run: run.metrics[criterion])

    def export_results(self) -> List[Dict[str, object]]:
        """Spreadsheet-ready rows (one per trained network)."""
        rows = []
        for run in self.runs:
            row: Dict[str, object] = {
                "topology": run.topology_name,
                "parameters": run.model.count_params(),
                "epochs_run": run.epochs_run,
            }
            row.update(run.metrics)
            rows.append(row)
        return rows
