"""The grid runner: parent-side cache reads, only misses mapped, in waves."""

import numpy as np
import pytest

from repro.adaptation.matrix import DriftMatrix, MatrixSpec
from repro.adaptation.scenarios import scenario_grid
from repro.compute import (
    BACKENDS,
    ArtifactCache,
    ParallelExecutor,
    TaskFailure,
    run_grid,
)
from repro.uncertainty import EnsembleSpec, train_ensemble


def _task(payload):
    """Module-level so the process backend can pickle it."""
    index, fail = payload
    if fail:
        raise ValueError(f"task {index} failed")
    return ("computed", index)


class _Logged(ParallelExecutor):
    """An executor that logs each wave it maps, in the parent."""

    def __init__(self, backend, max_workers, log):
        super().__init__(backend=backend, max_workers=max_workers)
        self.log = log

    def map_tasks(self, fn, payloads, label="map"):
        payloads = list(payloads)
        self.log.append(("map", [index for index, _fail in payloads]))
        return super().map_tasks(fn, payloads, label=label)


def _case(rng, n):
    hits = rng.random(n) < rng.random()
    fails = rng.random(n) < 0.3
    max_new = None if rng.random() < 0.3 else int(rng.integers(0, n + 1))
    return hits, fails, max_new


def _check_case(executor, log, hits, fails, max_new):
    n = len(hits)
    log.clear()
    keys = [None if i % 5 == 4 else f"k{i}" for i in range(n)]
    cached = {f"k{i}": ("cached", i) for i in range(n) if hits[i]}

    def payload(i):
        log.append(("payload", i))
        return (i, bool(fails[i]))

    def on_result(i, outcome):
        log.append(("result", i, outcome))

    grid = run_grid(
        executor, _task, keys, payload, cached.get, label="grid",
        max_new=max_new, on_result=on_result,
    )

    misses = [i for i in range(n) if keys[i] is None or not hits[i]]
    scheduled = misses if max_new is None else misses[:max_new]
    # Only misses reach payload() and fn, in waves of max_workers, each
    # wave's payloads built just before it goes out and its results
    # reported in task order right after it.
    expected = []
    size = executor.max_workers
    for start in range(0, len(scheduled), size):
        wave = scheduled[start:start + size]
        expected += [("payload", i) for i in wave]
        expected.append(("map", wave))
        expected += [("result", i) for i in wave]
    assert [event[:2] for event in log] == expected
    results = {event[1]: event[2] for event in log if event[0] == "result"}

    for i in range(n):
        if i not in misses:
            assert grid.values[i] == ("cached", i)
        elif i in scheduled and not fails[i]:
            assert grid.values[i] == ("computed", i)
            assert results[i] == ("computed", i)
        else:
            assert grid.values[i] is None
    failed = [i for i in scheduled if fails[i]]
    assert [f.index for f in grid.failures] == failed
    assert all(isinstance(f, TaskFailure) for f in grid.failures)
    assert all(f.label == "grid" for f in grid.failures)
    assert [results[i] for i in failed] == grid.failures
    assert grid.cached == n - len(misses)
    assert grid.computed == len(scheduled) - len(failed)
    assert grid.failed == len(failed)
    assert grid.cached + grid.computed + grid.failed + (
        len(misses) - len(scheduled)
    ) == n
    assert grid.paused == (len(scheduled) < len(misses))


@pytest.mark.parametrize(
    "backend, max_workers, cases",
    [
        ("serial", 1, 40),
        ("serial", 3, 40),
        ("thread", 2, 40),
        ("thread", 3, 40),
        ("process", 2, 12),
    ],
)
def test_random_masks_and_budgets(backend, max_workers, cases):
    assert backend in BACKENDS
    rng = np.random.default_rng(max_workers + len(backend))
    log = []
    with _Logged(backend, max_workers, log) as executor:
        for _ in range(cases):
            n = int(rng.integers(0, 12))
            _check_case(executor, log, *_case(rng, n))


def test_fully_cached_grid_maps_nothing():
    log = []
    executor = _Logged("process", 2, log)
    grid = run_grid(
        executor, _task, ["a", "b"], pytest.fail, lambda key: key,
        label="grid", on_result=pytest.fail,
    )
    assert grid.values == ["a", "b"]
    assert (grid.cached, grid.computed, grid.failed, grid.paused) == (
        2, 0, 0, False
    )
    assert log == [] and executor.pool_starts == 0


def test_zero_budget_pauses_without_mapping():
    log = []
    grid = run_grid(
        _Logged("serial", 1, log), _task, [None, None], pytest.fail,
        pytest.fail, label="grid", max_new=0,
    )
    assert grid.values == [None, None]
    assert grid.paused and grid.computed == 0
    assert log == []


class TestCachedCampaignsStartNoPool:
    """A fully cached matrix or ensemble re-run is parent-side reads."""

    def test_drift_matrix(self, tmp_path):
        spec = MatrixSpec(
            compounds=("H2", "CH4"), n_train=250, n_small=48, n_eval=64,
            epochs=2, fine_tune_epochs=2, hidden_units=(12,),
        )
        scenarios = scenario_grid(levels=(0.0, 1.0))
        cache = ArtifactCache(tmp_path)
        cold = DriftMatrix(
            spec, scenarios, strategies=("none", "scaler_recal"), cache=cache,
            executor=ParallelExecutor("serial"),
        ).run()
        with ParallelExecutor("process", max_workers=2) as executor:
            warm = DriftMatrix(
                spec, scenarios, strategies=("none", "scaler_recal"),
                cache=cache, executor=executor,
            ).run()
            assert executor.pool_starts == 0
        assert all(row["cache_hit"] for row in warm.rows)
        assert warm.surface() == cold.surface()

    def test_ensemble(self, tmp_path):
        spec = EnsembleSpec(
            compounds=("H2", "N2"), axis=(1.0, 50.0, 0.5), n_train=64,
            epochs=1, hidden_units=(8,), n_members=3, batch_size=32, seed=7,
        )
        cache = ArtifactCache(tmp_path)
        cold = train_ensemble(spec, cache=cache)
        with ParallelExecutor("process", max_workers=2) as executor:
            warm = train_ensemble(spec, executor=executor, cache=cache)
            assert executor.pool_starts == 0
        for ours, theirs in zip(cold.members, warm.members):
            for a, b in zip(ours.get_weights(), theirs.get_weights()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
