"""Unit tests for the unattended training service."""

import hashlib
import json

import numpy as np
import pytest

from repro.compute import BACKENDS, ParallelExecutor
from repro.core.datasets import SpectraDataset
from repro.core.topologies import TopologySpec, mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.provenance import ProvenanceTracker


def _dataset(n=120, length=12, outputs=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, length))
    weights = rng.random((length, outputs))
    y = x @ weights
    y = y / y.sum(axis=1, keepdims=True)
    return SpectraDataset(x, y, tuple(f"c{i}" for i in range(outputs)))


def _specs():
    return [
        mlp_topology(3, hidden_units=(16,)),
        mlp_topology(3, hidden_units=(8, 8)),
    ]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(train_fraction=1.0)


class TestTrainAll:
    def test_trains_every_topology(self):
        service = TrainingService(TrainingConfig(epochs=3))
        runs = service.train_all(_specs(), _dataset())
        assert len(runs) == 2
        for run in runs:
            assert "val_mae" in run.metrics
            assert run.epochs_run >= 1

    def test_progress_callback_invoked(self):
        messages = []
        service = TrainingService(TrainingConfig(epochs=2))
        service.train_all(_specs(), _dataset(), progress=messages.append)
        assert len(messages) == 2
        assert "mlp_16" in messages[0]

    def test_evaluation_data_scored_as_measured(self):
        service = TrainingService(TrainingConfig(epochs=2))
        runs = service.train_all(_specs(), _dataset(), evaluation_data=_dataset(seed=9))
        for run in runs:
            assert "measured_mae" in run.metrics
            assert "measured_mse" in run.metrics

    def test_duplicate_names_rejected(self):
        spec = mlp_topology(3, hidden_units=(16,))
        with pytest.raises(ValueError, match="duplicate"):
            TrainingService(TrainingConfig(epochs=1)).train_all(
                [spec, spec], _dataset()
            )

    def test_empty_topologies_rejected(self):
        with pytest.raises(ValueError):
            TrainingService().train_all([], _dataset())

    def test_provenance_recorded_with_parent(self):
        tracker = ProvenanceTracker()
        dataset_id = tracker.record("dataset", {"n": 120})
        service = TrainingService(TrainingConfig(epochs=2), provenance=tracker)
        runs = service.train_all(_specs(), _dataset(), dataset_artifact=dataset_id)
        for run in runs:
            assert run.artifact_id is not None
            assert tracker.ancestors(run.artifact_id) == [dataset_id]


class TestSelectionAndExport:
    def test_select_best_min(self):
        service = TrainingService(TrainingConfig(epochs=3))
        service.train_all(_specs(), _dataset())
        best = service.select_best("val_mae")
        assert best.metrics["val_mae"] == min(
            run.metrics["val_mae"] for run in service.runs
        )

    def test_select_best_max_mode(self):
        service = TrainingService(TrainingConfig(epochs=3))
        service.train_all(_specs(), _dataset())
        best = service.select_best("val_r2", mode="max")
        assert best.metrics["val_r2"] == max(
            run.metrics["val_r2"] for run in service.runs
        )

    def test_select_before_training_raises(self):
        with pytest.raises(RuntimeError):
            TrainingService().select_best()

    def test_select_unknown_metric_raises(self):
        service = TrainingService(TrainingConfig(epochs=1))
        service.train_all(_specs()[:1], _dataset())
        with pytest.raises(KeyError):
            service.select_best("bleu_score")

    def test_export_rows(self):
        service = TrainingService(TrainingConfig(epochs=2))
        service.train_all(_specs(), _dataset())
        rows = service.export_results()
        assert len(rows) == 2
        for row in rows:
            assert {"topology", "parameters", "epochs_run", "val_mae"} <= set(row)


class PoisonedTopology(TopologySpec):
    """A topology whose model NaN-poisons its weights at one global batch."""

    poison_at_batch = 4

    def build(self, input_shape, seed=0):
        model = super().build(input_shape, seed=seed)
        original = model.train_on_batch
        counter = {"batches": 0, "poisoned": False}

        def poisoned_train_on_batch(x, y):
            counter["batches"] += 1
            if not counter["poisoned"] and counter["batches"] == self.poison_at_batch:
                counter["poisoned"] = True
                model.layers[0].params["W"][:] = np.nan
            return original(x, y)

        model.train_on_batch = poisoned_train_on_batch
        return model


def _poisoned_spec():
    base = mlp_topology(3, hidden_units=(16,))
    spec = PoisonedTopology(name="mlp_poisoned", description=base.description)
    spec.layers = base.layers
    return spec


class TestDivergenceSentinelInSweep:
    def test_sweep_survives_injected_nan(self):
        """Acceptance: a topology sweep with an injected NaN completes
        end-to-end — the sentinel rolls back, reduces the LR, and every
        topology still trains to a finite result."""
        provenance = ProvenanceTracker()
        service = TrainingService(
            TrainingConfig(epochs=4, batch_size=16, patience=None),
            provenance=provenance,
        )
        specs = [_poisoned_spec()] + _specs()
        runs = service.train_all(specs, _dataset(), dataset_artifact=None)

        assert len(runs) == len(specs)
        by_name = {run.topology_name: run for run in runs}
        # The poisoned topology recovered instead of finishing with NaNs.
        poisoned = by_name["mlp_poisoned"]
        assert poisoned.rollbacks >= 1
        for run in runs:
            assert np.isfinite(run.metrics["val_mae"])
            assert all(
                np.isfinite(w).all() for w in run.model.get_weights()
            )
        # Healthy topologies were untouched by the sentinel.
        assert by_name["mlp_16"].rollbacks == 0
        assert by_name["mlp_8x8"].rollbacks == 0
        # Selection still works across the recovered sweep.
        best = service.select_best("val_mae")
        assert best.topology_name in by_name
        # The rollback left an audit trail in provenance.
        events = provenance.find(kind="divergence_rollback")
        assert events
        assert any(
            "non-finite" in event["metadata"]["reason"] for event in events
        )

    def test_sweep_with_checkpoints_and_injected_nan(self, tmp_path):
        from repro.reliability.checkpoint import CheckpointManager

        service = TrainingService(
            TrainingConfig(epochs=4, batch_size=16, patience=None),
            checkpoints=CheckpointManager(tmp_path),
        )
        runs = service.train_all([_poisoned_spec()], _dataset())
        assert runs[0].rollbacks >= 1
        assert np.isfinite(runs[0].metrics["val_mae"])

    def test_sentinel_can_be_disabled(self):
        service = TrainingService(
            TrainingConfig(epochs=2, sentinel=False)
        )
        runs = service.train_all(_specs()[:1], _dataset())
        assert runs[0].rollbacks == 0

    @pytest.mark.parametrize("backend", [None, *BACKENDS])
    def test_clip_norm_flows_through_to_the_optimizer(self, backend):
        """Every path hands back the trained optimizer, not a fresh one."""
        executor = (
            ParallelExecutor(backend=backend, max_workers=2)
            if backend is not None else None
        )
        service = TrainingService(
            TrainingConfig(
                epochs=3, batch_size=16, patience=None, seed=1, clip_norm=2.5
            ),
            executor=executor,
        )
        runs = service.train_all(_specs()[:1], _dataset())
        optimizer = runs[0].model.optimizer
        assert optimizer.clipnorm == 2.5
        # 96 training rows in batches of 16, for 3 epochs.
        assert optimizer.iterations == 18
        if executor is not None:
            executor.close()

    def test_provenance_sequence_is_pinned(self, tmp_path):
        """The in-process event stream of a seeded, checkpointed sweep whose
        first topology rolls back in epoch 2: every checkpoint, rollback and
        network record in order (numpy 2.4, OpenBLAS, x86-64)."""
        from repro.reliability.checkpoint import CheckpointManager

        provenance = ProvenanceTracker()
        service = TrainingService(
            TrainingConfig(epochs=4, batch_size=16, patience=None, seed=3),
            provenance=provenance,
            checkpoints=CheckpointManager(tmp_path),
        )
        poisoned = _poisoned_spec()
        poisoned.poison_at_batch = 10
        service.train_all([poisoned] + _specs(), _dataset())
        sequence = [(doc["kind"], doc["metadata"]) for doc in provenance.find()]
        assert [kind for kind, _ in sequence].count("divergence_rollback") == 1
        digest = hashlib.sha256(
            json.dumps(sequence, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert digest == (
            "9edcda85d6e337c683decd84ccc01598098e09f5cc1493b14bb506629d9350a4"
        )


class TestConfigRobustnessFields:
    def test_clip_norm_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(clip_norm=-1.0)

    def test_sentinel_max_rollbacks_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(sentinel_max_rollbacks=0)


class TestSelectBestEmpty:
    def test_empty_run_set_raises_clear_runtime_error(self):
        with pytest.raises(RuntimeError, match="no completed training runs"):
            TrainingService().select_best()
