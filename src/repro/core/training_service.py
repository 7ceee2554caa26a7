"""Unattended multi-topology training (Tool 4's front- and backend).

"The tools that assist in the definition phase allow the definition of one
or more network topologies and the training- and validation datasets to use
without modifying the source code.  The whole training process can then run
without user interaction.  Backend tools help with the evaluation of the
trained networks ..., the selection of the best-performing networks, based
on selectable quality criteria and the export of analysis data to
spreadsheet applications."

Every topology trains through one function, :func:`_train_topology`: build
(or continue a resumed model), attach early stopping and the divergence
sentinel, fit, score.  An in-process sweep calls it directly; with a
:class:`~repro.compute.executor.ParallelExecutor` the service fans the same
calls out over the executor's backend with ``map_tasks``.  One
reload-or-train decision runs before it and one finish step after it
(rollback provenance, final snapshot, ``network`` record, sweep state), so
serial/thread/process sweeps produce byte-identical models, optimizer
state, metrics and :meth:`TrainingService.select_best` outcomes.

Because the process runs without user interaction, it must also survive
without one: given a :class:`~repro.reliability.checkpoint.CheckpointManager`
``train_all(resume=True)`` reloads every topology whose final snapshot
landed (same final metrics as an uninterrupted run).  The deliberate
differences between the two modes:

* in-process, a topology is checkpointed every epoch, a half-trained one
  resumes from its last checkpointed epoch with restored optimizer state,
  and an exception propagates to the caller;
* with an executor, only the final scored snapshot is saved, and a task
  that dies (worker crash, injected fault) becomes a typed
  :class:`FailedRun` in :attr:`TrainingService.failures` — recorded in
  provenance and metrics, never fatal to the sweep.

Every checkpoint, resume and rollback event is recorded in the
:class:`ProvenanceTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compute.executor import ParallelExecutor, TaskFailure
from repro.core.datasets import SpectraDataset
from repro.core.topologies import TopologySpec
from repro.db.provenance import ProvenanceTracker
from repro.nn.metrics import mean_absolute_error, mean_squared_error, r2_score
from repro.nn.model import Sequential
from repro.nn.optimizers import get_optimizer
from repro.nn.sentinel import DivergenceSentinel
from repro.nn.training import EarlyStopping
from repro.observability.runtime import counter as _counter
from repro.observability.runtime import get_tracer
from repro.reliability.checkpoint import Checkpoint, CheckpointManager
from repro.storage.integrity import CorruptArtifactError

__all__ = ["TrainingConfig", "TrainingRun", "FailedRun", "TrainingService"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters shared by every run of a service invocation.

    ``clip_norm`` enables global gradient-norm clipping in every run.
    ``sentinel=True`` (the default) attaches a
    :class:`~repro.nn.sentinel.DivergenceSentinel` to every run, so a
    topology whose training goes non-finite is rolled back to its
    last-good state with a halved learning rate instead of finishing the
    sweep with NaN weights; ``sentinel_max_rollbacks`` bounds how often
    before the run is abandoned as diverged.
    """

    epochs: int = 30
    batch_size: int = 64
    optimizer: str = "adam"
    loss: str = "mae"
    train_fraction: float = 0.8
    patience: Optional[int] = 8
    seed: int = 0
    clip_norm: Optional[float] = None
    sentinel: bool = True
    sentinel_max_rollbacks: int = 5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.sentinel_max_rollbacks < 1:
            raise ValueError("sentinel_max_rollbacks must be >= 1")


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
    """A topology whose training task died in a parallel sweep."""

    topology_name: str
    error_type: str
    message: str
    attempts: int = 1


def _train_topology(payload: dict, rng: Optional[np.random.Generator]) -> dict:
    """Train and score one topology; the only training path of a sweep.

    Module-level, with a picklable payload and result, so the process
    backend can run it in a worker.  ``payload["model"]`` is a resumed
    model to continue from ``payload["initial_epoch"]``, or ``None`` to
    build the topology fresh; ``payload["checkpoint"]`` is the in-process
    per-epoch :class:`Checkpoint` callback, or ``None``.  The
    executor-provided ``rng`` is unused: training determinism comes from
    the config seed on every path.
    """
    config: TrainingConfig = payload["config"]
    train_x, val_x, val_y = payload["train_x"], payload["val_x"], payload["val_y"]
    model = payload["model"]
    if model is None:
        model = payload["topology"].build(train_x.shape[1:], seed=config.seed)
        model.compile(config.optimizer, config.loss)
    callbacks = []
    if config.patience is not None:
        callbacks.append(
            EarlyStopping(patience=config.patience, restore_best_weights=True)
        )
    sentinel: Optional[DivergenceSentinel] = None
    if config.sentinel:
        sentinel = DivergenceSentinel(max_rollbacks=config.sentinel_max_rollbacks)
        callbacks.append(sentinel)
    if payload["checkpoint"] is not None:
        callbacks.append(payload["checkpoint"])
    history = model.fit(
        train_x,
        payload["train_y"],
        epochs=config.epochs,
        batch_size=config.batch_size,
        validation_data=(val_x, val_y),
        callbacks=callbacks,
        seed=config.seed,
        initial_epoch=payload["initial_epoch"],
        clip_norm=config.clip_norm,
    )
    predictions = model.predict(val_x)
    metrics = {
        "val_mae": mean_absolute_error(predictions, val_y),
        "val_mse": mean_squared_error(predictions, val_y),
        "val_r2": r2_score(predictions, val_y),
    }
    if payload["eval_x"] is not None:
        measured = model.predict(payload["eval_x"])
        metrics["measured_mae"] = mean_absolute_error(measured, payload["eval_y"])
        metrics["measured_mse"] = mean_squared_error(measured, payload["eval_y"])
    return {
        "weights": model.get_weights(),
        "optimizer": model.optimizer.get_config(),
        "optimizer_state": model.optimizer.get_state(),
        "metrics": metrics,
        "epochs_run": payload["initial_epoch"] + len(history.epochs),
        "rollback_events": sentinel.events if sentinel is not None else [],
    }


class TrainingService:
    """Trains a list of topologies on one dataset, records, ranks, exports.

    With ``checkpoints`` set, every topology is snapshotted while it trains
    and finalized when it completes, so a killed sweep can be picked up
    with ``train_all(..., resume=True)``.

    With ``executor`` set, topologies train as parallel tasks on the
    executor's backend; failed tasks land in :attr:`failures` instead of
    aborting the sweep.
    """

    def __init__(
        self,
        config: TrainingConfig = TrainingConfig(),
        provenance: Optional[ProvenanceTracker] = None,
        checkpoints: Optional[CheckpointManager] = None,
        executor: Optional[ParallelExecutor] = None,
    ):
        self.config = config
        self.provenance = provenance
        self.checkpoints = checkpoints
        self.executor = executor
        self.runs: List[TrainingRun] = []
        self.failures: List[FailedRun] = []
        if (
            provenance is not None
            and checkpoints is not None
            and checkpoints.on_event is None
        ):
            # Surface the manager's quarantine/fallback events as
            # provenance artifacts so an audit sees every time persisted
            # state failed verification or an older generation was used.
            checkpoints.on_event = (
                lambda kind, detail: provenance.record(kind, dict(detail))
            )

    def train_all(
        self,
        topologies: Sequence[TopologySpec],
        dataset: SpectraDataset,
        evaluation_data: Optional[SpectraDataset] = None,
        dataset_artifact: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        resume: bool = False,
        sweep_name: str = "sweep",
    ) -> List[TrainingRun]:
        """Train every topology without user interaction.

        ``evaluation_data``, if given, is scored as ``measured_*`` metrics
        (the paper's evaluation on real measurement series).

        ``resume=True`` (requires a :class:`CheckpointManager`) reloads
        topologies that already completed in a previous invocation —
        reproducing their recorded metrics exactly — and, in-process,
        resumes a half-trained topology from its last checkpointed epoch.
        Note that mid-topology resume restarts the early-stopping patience
        window at the resume point; kill/resume between topologies is
        bit-exact.
        """
        if not topologies:
            raise ValueError("topologies must be non-empty")
        if resume and self.checkpoints is None:
            raise ValueError("resume=True requires a CheckpointManager")
        names = [t.name for t in topologies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate topology names: {names}")
        config = self.config
        train, validation = dataset.split(
            config.train_fraction, np.random.default_rng(config.seed)
        )
        sweep_state: Dict[str, object] = {"completed": {}}
        if self.checkpoints is not None and resume:
            try:
                stored = self.checkpoints.load_state(sweep_name)
            except CorruptArtifactError as error:
                # The corrupt sidecar is already quarantined; the sweep
                # restarts from the per-topology checkpoints instead.
                self._record_event(
                    "sweep_state_corrupt",
                    {"sweep": sweep_name, "error": str(error)},
                    dataset_artifact,
                )
                stored = None
            if stored is not None:
                sweep_state = stored
        completed: Dict[str, dict] = dict(sweep_state.get("completed", {}))
        arrays = {
            "train_x": train.x,
            "train_y": train.y,
            "val_x": validation.x,
            "val_y": validation.y,
        }
        if evaluation_data is not None:
            arrays["eval_x"] = evaluation_data.x
            arrays["eval_y"] = evaluation_data.y

        topologies_counter = _counter(
            "training_topologies_total", "topology runs by disposition"
        )

        def finish(topology: TopologySpec, result: dict, resumed: bool):
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
            model = topology.build(train.input_shape, seed=config.seed)
            model.compile(get_optimizer(result["optimizer"]), config.loss)
            model.set_weights(result["weights"])
            model.optimizer.set_state(result["optimizer_state"])
            metrics, epochs_run = result["metrics"], result["epochs_run"]
            if self.checkpoints is not None:
                # Final snapshot carries the (possibly best-weights-restored)
                # model so a later resume reloads exactly what was scored.
                self.checkpoints.save(
                    f"{sweep_name}-{topology.name}",
                    model,
                    state={
                        "epoch": epochs_run,
                        "completed": True,
                        "metrics": metrics,
                    },
                )
            run = TrainingRun(
                topology_name=topology.name,
                model=model,
                metrics=metrics,
                epochs_run=epochs_run,
                artifact_id=self._record_network(
                    topology.name, metrics, dataset_artifact
                ),
                resumed=resumed,
                rollbacks=len(result["rollback_events"]),
            )
            topologies_counter.inc(disposition="resumed" if resumed else "trained")
            self.runs.append(run)
            if self.checkpoints is not None:
                completed[topology.name] = {
                    "metrics": metrics,
                    "epochs_run": epochs_run,
                }
                sweep_state["completed"] = completed
                self.checkpoints.save_state(sweep_name, sweep_state)
            return run

        with get_tracer().start_span(
            "train.sweep",
            attributes={"sweep": sweep_name, "topologies": len(topologies)},
        ) as sweep_span:
            queued: List[Tuple[TopologySpec, dict]] = []
            for topology in topologies:
                checkpoint_name = f"{sweep_name}-{topology.name}"
                start = self._reload_or_resume(
                    topology, checkpoint_name, completed, resume,
                    dataset_artifact, progress,
                )
                if isinstance(start, TrainingRun):
                    topologies_counter.inc(disposition="reloaded")
                    self.runs.append(start)
                    continue
                model, initial_epoch = start
                if progress is not None:
                    verb = (
                        f"resuming from epoch {initial_epoch}"
                        if initial_epoch else "training"
                    )
                    progress(f"{verb} {topology.name}")
                payload = {
                    "topology": topology,
                    "config": config,
                    "model": model,
                    "initial_epoch": initial_epoch,
                    "checkpoint": None,
                    "eval_x": None,
                    "eval_y": None,
                }
                if self.executor is not None:
                    queued.append((topology, payload))
                    continue
                if self.checkpoints is not None:
                    payload["checkpoint"] = Checkpoint(
                        self.checkpoints,
                        checkpoint_name,
                        on_save=lambda path, epoch: self._record_event(
                            "checkpoint",
                            {"topology": topology.name, "epoch": epoch},
                            dataset_artifact,
                        ),
                    )
                with get_tracer().start_span(
                    "train.topology",
                    parent=sweep_span,
                    attributes={"topology": topology.name},
                ) as topology_span:
                    run = finish(
                        topology,
                        _train_topology({**payload, **arrays}, None),
                        resumed=initial_epoch > 0,
                    )
                    topology_span.set_attribute("epochs_run", run.epochs_run)
                    topology_span.set_attribute("rollbacks", run.rollbacks)
            if not queued:
                return self.runs
            sweep_span.set_attribute("backend", self.executor.backend)
            # Publish the dataset once per sweep instead of once per payload:
            # on the process backend every payload carries tiny
            # SharedArrayRef handles that workers resolve into read-only
            # memory maps; on serial/thread this is a pass-through.
            handles = self.executor.scatter(arrays)
            results = self.executor.map_tasks(
                _train_topology,
                [{**payload, **handles} for _, payload in queued],
                label=f"train.{sweep_name}",
            )
            n_failed = 0
            for (topology, _), result in zip(queued, results):
                if not isinstance(result, TaskFailure):
                    finish(topology, result, resumed=False)
                    continue
                n_failed += 1
                topologies_counter.inc(disposition="failed")
                self.failures.append(
                    FailedRun(
                        topology_name=topology.name,
                        error_type=result.error_type,
                        message=result.message,
                        attempts=result.attempts,
                    )
                )
                self._record_event(
                    "topology_failed",
                    {
                        "topology": topology.name,
                        "error_type": result.error_type,
                        "message": result.message,
                        "attempts": result.attempts,
                    },
                    dataset_artifact,
                )
                if progress is not None:
                    progress(
                        f"failed {topology.name}: "
                        f"{result.error_type}: {result.message}"
                    )
            sweep_span.set_attribute("failed", n_failed)
        return self.runs

    # -- one topology ------------------------------------------------------

    def _reload_or_resume(
        self,
        topology: TopologySpec,
        checkpoint_name: str,
        completed: Dict[str, dict],
        resume: bool,
        dataset_artifact: Optional[int],
        progress: Optional[Callable[[str], None]],
    ) -> Union[TrainingRun, Tuple[Optional[Sequential], int]]:
        """Decide where a topology starts, before any training.

        Returns the reloaded :class:`TrainingRun` of a topology whose final
        snapshot landed — whether or not its sweep-state entry did — or
        ``(model, initial_epoch)``: a resumed in-process model and its
        checkpointed epoch, else ``(None, 0)`` to train from scratch.
        """
        if not resume or not self.checkpoints.exists(checkpoint_name):
            return None, 0
        try:
            data = self.checkpoints.load(checkpoint_name, seed=self.config.seed)
        except CorruptArtifactError as error:
            # No generation verified (all quarantined by the manager):
            # train from scratch rather than resuming from bad bytes.
            self._record_event(
                "checkpoint_unreadable",
                {"topology": topology.name, "error": str(error)},
                dataset_artifact,
            )
            completed.pop(topology.name, None)
            return None, 0
        saved_epoch = int(data.state.get("epoch", 0))
        record = completed.get(topology.name)
        if record is None and data.state.get("completed"):
            # Crash landed between the final snapshot and the sweep
            # state update; the checkpoint already holds the scored model.
            record = {"metrics": data.state["metrics"], "epochs_run": saved_epoch}
        if record is not None:
            if progress is not None:
                progress(f"skipping completed {topology.name}")
            metrics = {k: float(v) for k, v in record["metrics"].items()}
            self._record_event(
                "resume",
                {"topology": topology.name, "skipped_completed": True},
                dataset_artifact,
            )
            return TrainingRun(
                topology_name=topology.name,
                model=data.model,
                metrics=metrics,
                epochs_run=int(record.get("epochs_run", 0)),
                artifact_id=self._record_network(
                    topology.name, metrics, dataset_artifact
                ),
                resumed=True,
            )
        if self.executor is not None or not 0 < saved_epoch < self.config.epochs:
            return None, 0
        model = data.model
        model.compile(data.optimizer or self.config.optimizer, self.config.loss)
        self._record_event(
            "resume",
            {"topology": topology.name, "epoch": saved_epoch},
            dataset_artifact,
        )
        return model, saved_epoch

    # -- provenance --------------------------------------------------------

    def _record_network(
        self, topology_name: str, metrics: Dict[str, float],
        dataset_artifact: Optional[int],
    ) -> Optional[int]:
        if self.provenance is None:
            return None
        parents = [dataset_artifact] if dataset_artifact is not None else []
        return self.provenance.record(
            "network", {"topology": topology_name, **metrics}, parents=parents
        )

    def _record_event(
        self, kind: str, metadata: dict, dataset_artifact: Optional[int]
    ) -> None:
        if self.provenance is None:
            return
        parents = [dataset_artifact] if dataset_artifact is not None else []
        self.provenance.record(kind, metadata, parents=parents)

    # -- selection & export ------------------------------------------------

    def select_best(self, criterion: str = "val_mae", mode: str = "min") -> TrainingRun:
        """Best run by a selectable quality criterion.

        Raises a clear ``RuntimeError("no completed training runs")`` when
        no run ever completed (empty or fully-failed sweep) instead of a
        bare ``ValueError`` escaping from ``min()``, and ``KeyError`` when
        runs exist but none recorded ``criterion``.
        """
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
