"""Chaos tests: worker crashes mid-sweep must never kill the sweep.

A :class:`~repro.reliability.faults.FaultInjector` wrapping a no-op source
is installed as the executor's per-task ``chaos`` hook, so a seeded subset
of training tasks dies with :class:`AcquisitionError` exactly as a crashed
worker would.  The sweep must complete, record every dead topology as a
typed :class:`FailedRun` (and in provenance), and still select the best
survivor.  Nothing is retried in the sweep itself: running it again over
the same :class:`~repro.compute.cache.ArtifactCache` trains exactly the
topologies that died.
"""

import numpy as np
import pytest

from repro.compute import ArtifactCache, ParallelExecutor
from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.provenance import ProvenanceTracker
from repro.reliability.faults import FaultConfig, FaultInjector


def _dataset(n=60, length=12, outputs=3, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(outputs), size=n)
    x = y @ rng.random((outputs, length)) + 0.01 * rng.random((n, length))
    return SpectraDataset(x, y, tuple(f"c{i}" for i in range(outputs)))


TOPOLOGIES = [
    mlp_topology(3, hidden_units=(8,)),
    mlp_topology(3, hidden_units=(16,)),
    mlp_topology(3, hidden_units=(8, 8)),
    mlp_topology(3, hidden_units=(16, 8)),
]
CONFIG = TrainingConfig(epochs=2, batch_size=16, patience=None, seed=1)


def _chaos_executor(dropped_scan, seed=0):
    """Thread backend with one worker: tasks hit the shared injector in
    submission order, so a fixed seed gives a fixed failure set."""
    injector = FaultInjector(
        lambda index: np.zeros(4),
        FaultConfig(dropped_scan=dropped_scan),
        seed=seed,
    )
    executor = ParallelExecutor("thread", max_workers=1, chaos=injector)
    return executor, injector


def _find_mixed_seed():
    """A seed whose failure pattern kills some but not all of 4 tasks.

    Mirrors the injector's draw pattern: one draw decides the drop; a
    surviving scan consumes four more draws (one per corruption class,
    all at probability zero here).
    """
    for seed in range(100):
        rng = np.random.default_rng(seed)
        drops = []
        for _ in range(4):
            dropped = rng.random() < 0.5
            drops.append(dropped)
            if not dropped:
                for _ in range(4):
                    rng.random()
        if any(drops) and not all(drops):
            return seed, drops
    raise AssertionError("no mixed seed found")


class TestSweepSurvivesWorkerCrashes:
    def test_failed_topologies_recorded_sweep_completes(self):
        seed, drops = _find_mixed_seed()
        executor, injector = _chaos_executor(0.5, seed=seed)
        provenance = ProvenanceTracker()
        service = TrainingService(
            CONFIG, provenance=provenance, executor=executor
        )
        runs = service.train_all(TOPOLOGIES, _dataset(), sweep_name="chaos")

        expected_dead = {
            TOPOLOGIES[i].name for i, dropped in enumerate(drops) if dropped
        }
        assert {f.topology_name for f in service.failures} == expected_dead
        assert {r.topology_name for r in runs} == {
            t.name for t in TOPOLOGIES
        } - expected_dead
        for failure in service.failures:
            assert failure.error_type == "AcquisitionError"
            assert "dropped" in failure.message
        # Every death is in provenance for post-mortem.
        failed_events = provenance.find(kind="topology_failed")
        assert {e["metadata"]["topology"] for e in failed_events} == expected_dead
        # Selection still works over the survivors.
        best = service.select_best()
        assert best.topology_name not in expected_dead
        assert injector.fault_counts["dropped_scan"] == len(expected_dead)

    def test_all_tasks_dead_sweep_still_returns(self):
        executor, _ = _chaos_executor(1.0)
        service = TrainingService(CONFIG, executor=executor)
        runs = service.train_all(TOPOLOGIES, _dataset(), sweep_name="chaos")
        assert runs == []
        assert len(service.failures) == len(TOPOLOGIES)
        with pytest.raises(RuntimeError, match="no completed training runs"):
            service.select_best()

    def test_resume_retrains_crashed(self, tmp_path):
        """Re-running over the same cache is the retry."""
        dispatched = []

        def crash_first_two(index):
            dispatched.append(index)
            if len(dispatched) <= 2:
                raise RuntimeError("worker crashed")

        dataset, cache = _dataset(), ArtifactCache(tmp_path / "cache")
        executor = ParallelExecutor("thread", 1, chaos=crash_first_two)
        first = TrainingService(CONFIG, cache=cache, executor=executor)
        first.train_all(TOPOLOGIES, dataset, sweep_name="chaos")
        dead = {t.name for t in TOPOLOGIES[:2]}
        assert {f.topology_name for f in first.failures} == dead
        resumed = TrainingService(CONFIG, cache=cache)
        runs = resumed.train_all(TOPOLOGIES, dataset, sweep_name="chaos")
        assert resumed.failures == []
        assert {r.topology_name for r in runs if not r.resumed} == dead
        clean = TrainingService(CONFIG)
        clean.train_all(TOPOLOGIES, dataset)
        assert {r.topology_name: r.metrics for r in runs} == {
            r.topology_name: r.metrics for r in clean.runs
        }

    def test_chaos_run_results_match_clean_run_for_survivors(self):
        """A surviving topology's model must be unaffected by the chaos."""
        seed, drops = _find_mixed_seed()
        dataset = _dataset()
        clean = TrainingService(CONFIG)
        clean.train_all(TOPOLOGIES, dataset)
        clean_by_name = {r.topology_name: r for r in clean.runs}

        executor, _ = _chaos_executor(0.5, seed=seed)
        chaotic = TrainingService(CONFIG, executor=executor)
        chaotic.train_all(TOPOLOGIES, dataset, sweep_name="chaos")
        assert chaotic.runs  # mixed seed guarantees survivors
        for run in chaotic.runs:
            ref = clean_by_name[run.topology_name]
            assert run.metrics == ref.metrics
            for got, want in zip(
                run.model.get_weights(), ref.model.get_weights()
            ):
                np.testing.assert_array_equal(got, want)

