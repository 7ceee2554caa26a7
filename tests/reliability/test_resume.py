"""Kill/resume tests for the checkpointing TrainingService sweep.

The topology is the unit of resume: a finished topology's final snapshot
is reloaded, anything else retrains from scratch.
"""

import numpy as np
import pytest

from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.provenance import ProvenanceTracker
from repro.reliability.checkpoint import CheckpointManager


class Boom(RuntimeError):
    """Stands in for a kill -9 / power loss during the sweep."""


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


def _config():
    return TrainingConfig(epochs=4, batch_size=32, patience=None)


class _CrashOnRecord(ProvenanceTracker):
    """Provenance tracker that dies on the n-th event of a given kind."""

    def __init__(self, kind, at):
        super().__init__()
        self._kind = kind
        self._at = at
        self._seen = 0

    def record(self, kind, metadata, parents=()):
        if kind == self._kind:
            self._seen += 1
            if self._seen == self._at:
                raise Boom(f"crashed on {kind} #{self._at}")
        return super().record(kind, metadata, parents=parents)


class TestResumeValidation:
    def test_resume_without_manager_raises(self):
        with pytest.raises(ValueError, match="CheckpointManager"):
            TrainingService(_config()).train_all(
                _specs(), _dataset(), resume=True
            )


class TestCrashBetweenTopologies:
    def test_resume_reproduces_uninterrupted_metrics(self, tmp_path):
        dataset = _dataset()
        baseline = TrainingService(_config())
        baseline_runs = baseline.train_all(_specs(), dataset)

        # Crash after the first topology finishes, before the second starts.
        manager = CheckpointManager(tmp_path)

        def kill_on_second(message):
            if "mlp_8x8" in message:
                raise Boom("killed between topologies")

        crashed = TrainingService(_config(), checkpoints=manager)
        with pytest.raises(Boom):
            crashed.train_all(
                _specs(), dataset, progress=kill_on_second, resume=True
            )
        assert manager.load("sweep-mlp_16").state["completed"] is True
        assert not manager.exists("sweep-mlp_8x8")

        resumed = TrainingService(_config(), checkpoints=manager)
        resumed_runs = resumed.train_all(_specs(), dataset, resume=True)

        assert [run.topology_name for run in resumed_runs] == [
            run.topology_name for run in baseline_runs
        ]
        assert resumed_runs[0].resumed is True  # reloaded, not retrained
        assert resumed_runs[1].resumed is False  # trained from scratch
        for resumed_run, baseline_run in zip(resumed_runs, baseline_runs):
            assert resumed_run.metrics == baseline_run.metrics
            for a, b in zip(
                resumed_run.model.get_weights(), baseline_run.model.get_weights()
            ):
                assert np.array_equal(a, b)

    def test_resume_skips_completed_without_retraining(self, tmp_path):
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        first = TrainingService(_config(), checkpoints=manager)
        first_runs = first.train_all(_specs(), dataset)

        messages = []
        second = TrainingService(_config(), checkpoints=manager)
        second_runs = second.train_all(
            _specs(), dataset, progress=messages.append, resume=True
        )
        assert all("skipping completed" in message for message in messages)
        assert all(run.resumed for run in second_runs)
        for second_run, first_run in zip(second_runs, first_runs):
            assert second_run.metrics == first_run.metrics


class TestCrashMidTopology:
    def test_resume_events_recorded_in_provenance(self, tmp_path):
        """Die after the final snapshot landed but before the network
        record: the resume reloads the snapshot and says so."""
        dataset = _dataset()
        spec = _specs()[:1]
        manager = CheckpointManager(tmp_path)
        tracker = _CrashOnRecord("network", at=1)
        with pytest.raises(Boom):
            TrainingService(
                _config(), provenance=tracker, checkpoints=manager
            ).train_all(spec, dataset)
        assert manager.load("sweep-mlp_16").state["completed"] is True

        after = ProvenanceTracker()
        runs = TrainingService(
            _config(), provenance=after, checkpoints=manager
        ).train_all(spec, dataset, resume=True)
        assert runs[0].resumed is True
        counts = after.counts_by_kind()
        assert counts["resume"] == 1
        assert counts["network"] == 1
