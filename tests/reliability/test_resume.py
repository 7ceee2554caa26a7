"""Kill/resume tests for the cache-backed TrainingService sweep.

The topology is the unit of resume: a topology whose cache entry reads
back verified is reused, anything else trains from scratch.  Entries are
keyed by the topology, the config and the data, so a re-run on other
inputs never reuses a result those inputs did not produce.
"""

import dataclasses

import numpy as np
import pytest

from repro.compute import ArtifactCache, ParallelExecutor
from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.provenance import ProvenanceTracker


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


def _config(**changes):
    return dataclasses.replace(
        TrainingConfig(epochs=4, batch_size=32, patience=None), **changes
    )


def _assert_same_runs(runs, reference):
    assert [run.topology_name for run in runs] == [
        run.topology_name for run in reference
    ]
    for run, ref in zip(runs, reference):
        assert run.metrics == ref.metrics
        assert run.epochs_run == ref.epochs_run
        got, want = run.model.get_weights(), ref.model.get_weights()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


class TestSameInputsReuse:
    def test_rerun_reuses_every_topology_bit_exact(self, tmp_path):
        dataset = _dataset()
        first = TrainingService(_config(), cache=ArtifactCache(tmp_path))
        first_runs = first.train_all(_specs(), dataset)
        assert not any(run.resumed for run in first_runs)

        dispatched = []
        again = TrainingService(
            _config(),
            cache=ArtifactCache(tmp_path),
            executor=ParallelExecutor("serial", chaos=dispatched.append),
        )
        runs = again.train_all(_specs(), dataset)
        assert dispatched == []
        assert all(run.resumed for run in runs)
        _assert_same_runs(runs, first_runs)


class TestStaleResume:
    """A cached result is reused only for the inputs that produced it."""

    def test_other_dataset_retrains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        TrainingService(_config(epochs=2), cache=cache).train_all(
            _specs(), _dataset(seed=0)
        )
        other = _dataset(seed=1)
        runs = TrainingService(_config(epochs=2), cache=cache).train_all(
            _specs(), other
        )
        assert [run.resumed for run in runs] == [False, False]
        fresh = TrainingService(_config(epochs=2)).train_all(_specs(), other)
        _assert_same_runs(runs, fresh)

    def test_other_epochs_retrains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        dataset = _dataset()
        TrainingService(_config(epochs=2), cache=cache).train_all(
            _specs(), dataset
        )
        runs = TrainingService(_config(epochs=5), cache=cache).train_all(
            _specs(), dataset
        )
        assert [run.resumed for run in runs] == [False, False]
        assert [run.epochs_run for run in runs] == [5, 5]
        fresh = TrainingService(_config(epochs=5)).train_all(_specs(), dataset)
        _assert_same_runs(runs, fresh)

    def test_other_evaluation_data_retrains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        dataset = _dataset()
        TrainingService(_config(), cache=cache).train_all(
            _specs(), dataset, evaluation_data=_dataset(n=20, seed=2)
        )
        runs = TrainingService(_config(), cache=cache).train_all(
            _specs(), dataset, evaluation_data=_dataset(n=20, seed=3)
        )
        assert [run.resumed for run in runs] == [False, False]


class TestCrashBetweenTopologies:
    def test_resume_reproduces_uninterrupted_metrics(self, tmp_path):
        dataset = _dataset()
        baseline_runs = TrainingService(_config()).train_all(_specs(), dataset)

        # Crash after the first topology finishes, before the second starts.
        cache = ArtifactCache(tmp_path)

        def kill_on_second(message):
            if "mlp_8x8" in message:
                raise Boom("killed between topologies")

        crashed = TrainingService(_config(), cache=cache)
        with pytest.raises(Boom):
            crashed.train_all(_specs(), dataset, progress=kill_on_second)
        assert cache.stats()["entries"] == 1

        resumed_runs = TrainingService(_config(), cache=cache).train_all(
            _specs(), dataset
        )
        assert resumed_runs[0].resumed is True  # reloaded, not retrained
        assert resumed_runs[1].resumed is False  # trained from scratch
        _assert_same_runs(resumed_runs, baseline_runs)

    def test_resume_skips_completed_without_retraining(self, tmp_path):
        dataset = _dataset()
        cache = ArtifactCache(tmp_path)
        first_runs = TrainingService(_config(), cache=cache).train_all(
            _specs(), dataset
        )

        messages = []
        second_runs = TrainingService(_config(), cache=cache).train_all(
            _specs(), dataset, progress=messages.append
        )
        assert messages
        assert all("skipping completed" in message for message in messages)
        assert all(run.resumed for run in second_runs)
        for second_run, first_run in zip(second_runs, first_runs):
            assert second_run.metrics == first_run.metrics


class TestCrashMidTopology:
    def test_resume_events_recorded_in_provenance(self, tmp_path):
        """Die after the cache entry landed but before the network
        record: the re-run reuses the entry and says so."""
        dataset = _dataset()
        spec = _specs()[:1]
        cache = ArtifactCache(tmp_path)
        tracker = _CrashOnRecord("network", at=1)
        with pytest.raises(Boom):
            TrainingService(
                _config(), provenance=tracker, cache=cache
            ).train_all(spec, dataset)
        assert cache.stats()["entries"] == 1

        after = ProvenanceTracker()
        runs = TrainingService(
            _config(), provenance=after, cache=cache
        ).train_all(spec, dataset)
        assert runs[0].resumed is True
        counts = after.counts_by_kind()
        assert counts["resume"] == 1
        assert counts["network"] == 1
        assert after.find(kind="resume")[0]["metadata"] == {
            "topology": "mlp_16", "skipped_completed": True,
        }
