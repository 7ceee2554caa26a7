"""Unit tests for the unattended training service."""

import hashlib
import json
import tempfile

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

    def test_select_best_rejects_unknown_mode(self):
        service = TrainingService(TrainingConfig(epochs=3))
        service.train_all(_specs(), _dataset())
        with pytest.raises(ValueError, match="mode"):
            service.select_best("val_mae", mode="mni")

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

    def test_sweep_with_cache_and_injected_nan(self, tmp_path):
        from repro.compute import ArtifactCache

        service = TrainingService(
            TrainingConfig(epochs=4, batch_size=16, patience=None),
            cache=ArtifactCache(tmp_path),
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
        """The event stream of a seeded, cached sweep whose first
        topology rolls back in epoch 2: every rollback and network record
        in order (numpy 2.4, OpenBLAS, x86-64)."""
        from repro.compute import ArtifactCache

        provenance = ProvenanceTracker()
        service = TrainingService(
            TrainingConfig(epochs=4, batch_size=16, patience=None, seed=3),
            provenance=provenance,
            cache=ArtifactCache(tmp_path),
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
            "d9753e36b78b166b07a96bc6e07abc0fbc98610775f0f07fb725ffdcf4d35c12"
        )


class WritingTopology(TopologySpec):
    """A topology whose training first writes into its input ``x``."""

    def build(self, input_shape, seed=0):
        model = super().build(input_shape, seed=seed)
        fit = model.fit

        def fit_after_writing(x, y, **kwargs):
            x[0, 0] = x[0, 0]
            return fit(x, y, **kwargs)

        model.fit = fit_after_writing
        return model


def _writing_spec():
    base = mlp_topology(3, hidden_units=(4,))
    spec = WritingTopology(name="mlp_writing", description=base.description)
    spec.layers = base.layers
    return spec


@pytest.fixture
def scratch_root(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory the test can watch."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


class TestProcessHandoff:
    """A process sweep saves its arrays once, maps them read-only in the
    workers, and leaves no file behind once ``train_all`` returns."""

    CONFIG = TrainingConfig(epochs=2, batch_size=16, patience=None)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_a_process_sweep_saves_files_and_they_go_with_it(
        self, backend, scratch_root
    ):
        seen = []

        def watch(message):
            seen.append(sorted(p.name for p in scratch_root.rglob("*.npy")))

        with ParallelExecutor(backend=backend, max_workers=2) as executor:
            service = TrainingService(self.CONFIG, executor=executor)
            service.train_all(
                _specs() + [_writing_spec()], _dataset(),
                evaluation_data=_dataset(seed=9), progress=watch,
            )
            # Also when a task raises: the writing topology's does.
            assert [f.topology_name for f in service.failures] == (
                ["mlp_writing"] if backend == "process" else []
            )
            assert list(scratch_root.iterdir()) == []
        expected = [
            "eval_x.npy", "eval_y.npy", "train_rows.npy", "val_rows.npy",
            "x.npy", "y.npy",
        ] if backend == "process" else []
        assert seen and all(names == expected for names in seen)

    def test_a_parent_exception_removes_the_files(self, scratch_root):
        class Stop(RuntimeError):
            pass

        def stop_at_second(message):
            if "mlp_8x8" in message:
                raise Stop(message)

        with ParallelExecutor(backend="process", max_workers=1) as executor:
            with pytest.raises(Stop) as stopped:
                TrainingService(self.CONFIG, executor=executor).train_all(
                    _specs(), _dataset(), progress=stop_at_second
                )
            # The live traceback keeps the sweep's frames, so no garbage
            # collection can have removed the files: the sweep did.
            assert stopped.traceback
            assert list(scratch_root.iterdir()) == []

    def test_sweeps_on_one_warm_executor_leave_nothing(self, scratch_root):
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            for seed in (0, 1):
                service = TrainingService(self.CONFIG, executor=executor)
                service.train_all(_specs(), _dataset(seed=seed))
                assert service.failures == []
                assert list(scratch_root.iterdir()) == []
            assert executor.pool_starts == 1

    def test_process_tasks_get_read_only_arrays(self):
        dataset = _dataset()
        x = dataset.x.copy()
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            service = TrainingService(self.CONFIG, executor=executor)
            service.train_all([_writing_spec()] + _specs(), dataset)
        (failure,) = service.failures
        assert failure.error_type == "ValueError"
        assert "read-only" in failure.message
        assert dataset.x.tobytes() == x.tobytes()

    def test_a_fully_cached_sweep_writes_nothing(
        self, tmp_path, scratch_root, monkeypatch
    ):
        from repro.compute import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        TrainingService(self.CONFIG, cache=cache).train_all(
            _specs(), _dataset()
        )
        made = []
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(args)
            return mkdtemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            runs = TrainingService(
                self.CONFIG, cache=cache, executor=executor
            ).train_all(_specs(), _dataset())
            assert executor.pool_starts == 0
        assert all(run.resumed for run in runs)
        assert made == []
        assert list(scratch_root.iterdir()) == []


class TestConfigRobustnessFields:
    def test_clip_norm_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(clip_norm=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(clip_norm=float("nan"))

    def test_sentinel_max_rollbacks_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(sentinel_max_rollbacks=0)

    @pytest.mark.parametrize(
        "field", ["epochs", "batch_size", "sentinel_max_rollbacks"]
    )
    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf")])
    def test_counts_must_be_whole_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("value", [-3, float("nan")])
    def test_patience_must_not_be_negative(self, value):
        with pytest.raises(ValueError, match="patience must be >= 0"):
            TrainingConfig(patience=value)

    def test_whole_counts_and_zero_patience_pass(self):
        TrainingConfig(epochs=3.0, batch_size=16, patience=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, value):
        with pytest.raises(
            ValueError, match="learning_rate must be positive and finite"
        ):
            TrainingConfig(learning_rate=value)

    def test_default_learning_rate_is_adams(self):
        from repro.nn.optimizers import Adam

        assert TrainingConfig().learning_rate == Adam().learning_rate


class TestSelectBestEmpty:
    def test_empty_run_set_raises_clear_runtime_error(self):
        with pytest.raises(RuntimeError, match="no completed training runs"):
            TrainingService().select_best()
