"""Unit tests for the pluggable parallel execution engine."""

import numpy as np
import pytest

from repro.compute import BACKENDS, ParallelExecutor, TaskFailure
from repro.observability.runtime import scoped


# Worker functions are module-level so the process backend can pickle them.

def _draw(payload):
    """Scale a random vector seeded by the payload itself."""
    return np.random.default_rng(int(payload)).random(5) * payload


def _boom_on_marker(payload):
    if payload == "boom":
        raise ValueError("task exploded")
    return payload


def _raise_classes(payload):
    if isinstance(payload, type):
        raise payload()
    return payload


def _unpicklable_result(payload):
    return lambda: payload  # lambdas cannot cross a process boundary


class TestDeterminism:
    def test_all_backends_byte_identical(self):
        payloads = [1.0, 2.0, 3.0, 4.0, 5.0]
        reference = None
        for backend in BACKENDS:
            executor = ParallelExecutor(backend=backend, max_workers=2)
            results = executor.map_tasks(_draw, payloads)
            stacked = np.stack(results)
            if reference is None:
                reference = stacked
            else:
                np.testing.assert_array_equal(stacked, reference, err_msg=backend)

    def test_repeat_call_reproducible(self):
        executor = ParallelExecutor(backend="thread", max_workers=4)
        a = executor.map_tasks(_draw, [2.0, 4.0])
        b = executor.map_tasks(_draw, [2.0, 4.0])
        np.testing.assert_array_equal(np.stack(a), np.stack(b))

    def test_empty_payloads(self):
        assert ParallelExecutor().map_tasks(_draw, []) == []


class TestContainment:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_occupies_slot_without_killing_sweep(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2)
        results = executor.map_tasks(
            _boom_on_marker, ["ok-1", "boom", "ok-2"], label="demo"
        )
        assert results[0] == "ok-1"
        assert results[2] == "ok-2"
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.label == "demo"
        assert failure.error_type == "ValueError"
        assert "exploded" in failure.message

    def test_unpicklable_result_contained_not_fatal(self):
        executor = ParallelExecutor(backend="process", max_workers=2)
        results = executor.map_tasks(
            _unpicklable_result, ["a", "b", "c", "d"]
        )
        # Whatever the pool does with unpicklable results, the sweep
        # must complete with one entry per payload, each either a value
        # or a typed failure.
        assert len(results) == 4
        for entry in results:
            assert callable(entry) or isinstance(entry, TaskFailure)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_failed_task_is_not_rerun(self, backend):
        """Re-running the sweep is the one recovery path."""
        dispatched = []
        executor = ParallelExecutor(backend, 2, chaos=dispatched.append)
        results = executor.map_tasks(_boom_on_marker, ["a", "boom", "b"])
        assert isinstance(results[1], TaskFailure)
        assert sorted(dispatched) == [0, 1, 2]
        executor.close()


    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupts_are_not_contained(self, backend, interrupt):
        """Only Exceptions become TaskFailures; an interrupt stops the map."""
        with ParallelExecutor(backend, 2) as executor:
            with pytest.raises(interrupt):
                executor.map_tasks(_raise_classes, [0, interrupt, 2])


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelExecutor(backend="mpi")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            ParallelExecutor(max_workers=0)

    @pytest.mark.parametrize("workers", [2.5, float("nan"), float("inf")])
    def test_non_whole_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match="max_workers must be a whole number"):
            ParallelExecutor(max_workers=workers)


class TestObservability:
    def test_outcome_counters_and_span(self):
        with scoped() as (registry, tracer):
            executor = ParallelExecutor(backend="serial")
            executor.map_tasks(_boom_on_marker, ["a", "boom", "b"])
            tasks = registry.counter("compute_tasks_total")
            assert tasks.value(backend="serial", outcome="ok") == 2
            assert tasks.value(backend="serial", outcome="failed") == 1
        spans = [
            span for span in tracer.finished_spans()
            if span.name == "compute.map"
        ]
        assert len(spans) == 1
        assert spans[0].attributes["tasks"] == 3
        assert spans[0].attributes["failures"] == 1


def _pid_task(payload):
    """The worker's pid, after a pause so no one worker drains a call."""
    import os
    import time

    time.sleep(0.02)
    return os.getpid()


class TestWarmPool:
    """The pool is built once per executor lifetime and reused."""

    def test_second_map_tasks_pays_no_pool_startup(self):
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            executor.map_tasks(_draw, [1.0, 2.0, 3.0])
            assert executor.pool_starts == 1
            assert executor.last_map_stats["pool_startup_s"] > 0.0
            executor.map_tasks(_draw, [4.0, 5.0, 6.0])
            assert executor.pool_starts == 1
            assert executor.last_map_stats["pool_startup_s"] == 0.0

    def test_warm_up_brings_up_every_worker(self):
        # Counted before any task is dispatched: a pool that started one
        # worker and spawned the rest on demand would show fewer.
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            pool, _startup_s = executor._ensure_pool()
            workers = list(pool._processes.values())
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
            executor.map_tasks(_draw, [1.0, 2.0])
            assert executor.pool_starts == 1
            assert set(pool._processes.values()) == set(workers)

    def test_workers_are_reused_across_calls(self):
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            first = set(executor.map_tasks(_pid_task, [0, 1, 2, 3]))
            second = set(executor.map_tasks(_pid_task, [0, 1, 2, 3]))
            assert first & second

    def test_close_releases_pool_and_next_call_rebuilds(self):
        executor = ParallelExecutor(backend="thread", max_workers=2)
        executor.map_tasks(_draw, [1.0, 2.0])
        assert executor.pool_starts == 1
        executor.close()
        executor.close()  # idempotent
        executor.map_tasks(_draw, [1.0, 2.0])
        assert executor.pool_starts == 2
        executor.close()

    def test_serial_backend_never_builds_a_pool(self):
        executor = ParallelExecutor(backend="serial")
        executor.map_tasks(_draw, [1.0, 2.0, 3.0])
        assert executor.pool_starts == 0

    def test_pool_start_counter(self):
        with scoped() as (registry, _):
            with ParallelExecutor(backend="thread", max_workers=2) as executor:
                executor.map_tasks(_draw, [1.0, 2.0])
                executor.map_tasks(_draw, [3.0, 4.0])
            starts = registry.counter("compute_pool_starts_total")
            assert starts.value(backend="thread") == 1

    @pytest.mark.parametrize(
        "max_workers, sizes",
        [(1, [2, 2, 1]), (2, [1, 1, 1, 1, 1])],
        ids=["one_worker", "two_workers"],
    )
    def test_chunk_size_keeps_determinism(self, max_workers, sizes):
        payloads = [1.0, 2.0, 3.0, 4.0, 5.0]
        baseline = ParallelExecutor(backend="serial")
        expected = np.stack(baseline.map_tasks(_draw, payloads))
        with ParallelExecutor(
            backend="thread", max_workers=max_workers
        ) as executor:
            chunks = executor._chunks(payloads)
            assert [len(chunk) for chunk in chunks] == sizes
            chunked = np.stack(executor.map_tasks(_draw, payloads))
        np.testing.assert_array_equal(chunked, expected)


class TestPhaseStats:
    def test_last_map_stats_reports_every_phase(self):
        with ParallelExecutor(backend="thread", max_workers=2) as executor:
            executor.map_tasks(_draw, [1.0, 2.0, 3.0], label="phase-check")
            stats = executor.last_map_stats
        for key in (
            "pool_startup_s", "dispatch_s", "task_compute_s",
            "result_wait_s", "wall_s",
        ):
            assert key in stats and stats[key] >= 0.0
        assert stats["tasks"] == 3
        assert stats["label"] == "phase-check"

    def test_phase_histogram_collected(self):
        with scoped() as (registry, _):
            with ParallelExecutor(backend="thread", max_workers=2) as executor:
                executor.map_tasks(_draw, [1.0, 2.0])
            histogram = registry.histogram("compute_map_phase_seconds")
            assert histogram.count(backend="thread", phase="task_compute_s") == 1
