"""Parallel training sweeps must be byte-identical to serial ones."""

import numpy as np
import pytest

from repro.compute import BACKENDS, ArtifactCache, ParallelExecutor
from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.provenance import ProvenanceTracker
from tests.core.test_training_service import _poisoned_spec


def _dataset(n=80, length=16, outputs=3, seed=0, informative=True):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(outputs), size=n)
    if not informative:
        # Spectra unrelated to the labels: validation loss stalls within a
        # few epochs, so a small patience really fires early stopping.
        x = rng.random((n, length))
    else:
        x = y @ rng.random((outputs, length)) + 0.01 * rng.random((n, length))
    return SpectraDataset(x, y, tuple(f"c{i}" for i in range(outputs)))


TOPOLOGIES = [
    mlp_topology(3, hidden_units=(16,)),
    mlp_topology(3, hidden_units=(8, 8)),
]
CONFIG = TrainingConfig(epochs=3, batch_size=16, patience=None, seed=1)

# Sweep configurations every backend must reproduce exactly: plain epochs,
# early stopping that fires and restores best weights, gradient clipping.
CASES = {
    "no_patience": CONFIG,
    "early_stopping": TrainingConfig(
        epochs=10, batch_size=16, patience=0, seed=1
    ),
    "clip_norm": TrainingConfig(
        epochs=3, batch_size=16, patience=None, seed=1, clip_norm=2.5
    ),
}


def _poisoned():
    # NaN-poisons its weights in epoch 2 (64 training rows, 4 batches per
    # epoch), after a last-good epoch exists to roll back to.
    spec = _poisoned_spec()
    spec.poison_at_batch = 6
    return spec


def _sweep(config, dataset, directory, executor=None):
    provenance = ProvenanceTracker()
    service = TrainingService(
        config,
        provenance=provenance,
        cache=ArtifactCache(directory) if directory is not None else None,
        executor=executor,
    )
    service.train_all([_poisoned()] + TOPOLOGIES, dataset)
    events = [
        (doc["kind"], doc["metadata"])
        for doc in provenance.find()
        if doc["kind"] in ("network", "divergence_rollback")
    ]
    return service, events


def _assert_same_optimizer(got, want):
    assert got.get_config() == want.get_config()
    got_state, want_state = got.get_state(), want.get_state()
    assert got_state["iterations"] == want_state["iterations"]
    assert got_state["slots"].keys() == want_state["slots"].keys()
    for name, slot in want_state["slots"].items():
        assert got_state["slots"][name].keys() == slot.keys()
        for key, value in slot.items():
            np.testing.assert_array_equal(got_state["slots"][name][key], value)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "cached", [False, True], ids=["memory", "cache"]
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_metrics_weights_and_selection_match_serial(
        self, backend, case, cached, tmp_path
    ):
        config = CASES[case]
        dataset = _dataset(informative=False)
        reference, reference_events = _sweep(
            config, dataset, tmp_path / "ref" if cached else None
        )
        with ParallelExecutor(backend=backend, max_workers=2) as executor:
            service, events = _sweep(
                config,
                dataset,
                tmp_path / "par" if cached else None,
                executor=executor,
            )
        assert service.failures == []
        assert [r.topology_name for r in service.runs] == [
            r.topology_name for r in reference.runs
        ]
        for run, ref in zip(service.runs, reference.runs):
            assert run.metrics == ref.metrics
            assert run.epochs_run == ref.epochs_run
            assert run.rollbacks == ref.rollbacks
            for got, want in zip(
                run.model.get_weights(), ref.model.get_weights()
            ):
                np.testing.assert_array_equal(got, want)
            _assert_same_optimizer(run.model.optimizer, ref.model.optimizer)
        assert service.export_results() == reference.export_results()
        assert events == reference_events
        assert (
            service.select_best().topology_name
            == reference.select_best().topology_name
        )
        # The sweep exercised what the case is named for.
        assert reference.runs[0].rollbacks == 1
        if case == "early_stopping":
            assert any(r.epochs_run < config.epochs for r in reference.runs)

    def test_export_results_match(self):
        dataset = _dataset()
        reference = TrainingService(CONFIG)
        reference.train_all(TOPOLOGIES, dataset)
        service = TrainingService(
            CONFIG, executor=ParallelExecutor(backend="thread", max_workers=2)
        )
        service.train_all(TOPOLOGIES, dataset)
        assert service.export_results() == reference.export_results()


class TestParallelProvenance:
    def test_networks_recorded_per_topology(self):
        provenance = ProvenanceTracker()
        service = TrainingService(
            CONFIG,
            provenance=provenance,
            executor=ParallelExecutor(backend="serial"),
        )
        service.train_all(TOPOLOGIES, _dataset(), dataset_artifact=None)
        networks = provenance.find(kind="network")
        assert {n["metadata"]["topology"] for n in networks} == {
            t.name for t in TOPOLOGIES
        }
        assert all(run.artifact_id is not None for run in service.runs)


class TestParallelResume:
    def test_completed_topologies_skipped(self, tmp_path):
        dataset = _dataset()
        first = TrainingService(
            CONFIG,
            cache=ArtifactCache(tmp_path / "cache"),
            executor=ParallelExecutor(backend="serial"),
        )
        first.train_all(TOPOLOGIES, dataset, sweep_name="demo")

        second = TrainingService(
            CONFIG,
            cache=ArtifactCache(tmp_path / "cache"),
            executor=ParallelExecutor(backend="serial"),
        )
        runs = second.train_all(TOPOLOGIES, dataset, sweep_name="demo")
        assert all(run.resumed for run in runs)
        for run, ref in zip(runs, first.runs):
            assert run.metrics == ref.metrics

    def test_final_snapshot_without_sweep_entry_is_not_retrained(
        self, tmp_path
    ):
        """One cache entry per topology is the one completion record: no
        sweep-level entry is needed to reuse it without dispatching, and
        the sweep's name is a label, not part of the key."""
        dataset = _dataset()
        cache = ArtifactCache(tmp_path)
        first = TrainingService(CONFIG, cache=cache)
        first.train_all(TOPOLOGIES, dataset, sweep_name="demo")
        assert cache.stats()["entries"] == len(TOPOLOGIES)

        dispatched = []
        executor = ParallelExecutor(backend="serial", chaos=dispatched.append)
        second = TrainingService(CONFIG, cache=cache, executor=executor)
        runs = second.train_all(TOPOLOGIES, dataset, sweep_name="renamed")
        assert dispatched == []
        assert all(run.resumed for run in runs)
        for run, ref in zip(runs, first.runs):
            assert run.metrics == ref.metrics

    def test_kill_in_second_wave_keeps_the_first_waves_snapshots(
        self, tmp_path
    ):
        """Each wave's cache entries land before the next wave starts, so
        a kill at wave two loses nothing the first wave finished."""
        dataset = _dataset()
        topologies = TOPOLOGIES + [mlp_topology(3, hidden_units=(4,))]
        uninterrupted = TrainingService(CONFIG)
        uninterrupted.train_all(topologies, dataset)

        class Killed(RuntimeError):
            pass

        def kill_at_wave_two(message):
            if topologies[2].name in message:
                raise Killed(message)

        cache = ArtifactCache(tmp_path)
        with ParallelExecutor(backend="thread", max_workers=2) as executor:
            with pytest.raises(Killed):
                TrainingService(
                    CONFIG, cache=cache, executor=executor
                ).train_all(topologies, dataset, progress=kill_at_wave_two)
            assert cache.stats()["entries"] == 2
            resumed = TrainingService(
                CONFIG, cache=cache, executor=executor
            ).train_all(topologies, dataset)
        assert [run.resumed for run in resumed] == [True, True, False]
        assert [run.topology_name for run in resumed] == [
            topology.name for topology in topologies
        ]
        for run, ref in zip(resumed, uninterrupted.runs):
            assert run.metrics == ref.metrics
            for got, want in zip(
                run.model.get_weights(), ref.model.get_weights()
            ):
                np.testing.assert_array_equal(got, want)
