"""Unit tests for the pluggable parallel execution engine."""

import numpy as np
import pytest

from repro.compute import BACKENDS, ParallelExecutor, TaskFailure
from repro.observability.runtime import scoped
from repro.reliability.retry import RetryPolicy


# Worker functions are module-level so the process backend can pickle them.

def _draw(payload, rng):
    """Scale a deterministic per-task random vector."""
    return rng.random(5) * payload


def _boom_on_marker(payload, rng):
    if payload == "boom":
        raise ValueError("task exploded")
    return payload


def _fail_once_via_file(payload, rng):
    """Fails on the first attempt, succeeds after (state in a temp file)."""
    import os

    if not os.path.exists(payload):
        with open(payload, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return "recovered"


def _always_fails(payload, rng):
    raise RuntimeError(f"dead task {payload}")


def _unpicklable_result(payload, rng):
    return lambda: payload  # lambdas cannot cross a process boundary


class TestDeterminism:
    def test_all_backends_byte_identical(self):
        payloads = [1.0, 2.0, 3.0, 4.0, 5.0]
        reference = None
        for backend in BACKENDS:
            executor = ParallelExecutor(backend=backend, max_workers=2, seed=7)
            results = executor.map_tasks(_draw, payloads)
            stacked = np.stack(results)
            if reference is None:
                reference = stacked
            else:
                np.testing.assert_array_equal(stacked, reference, err_msg=backend)

    def test_seed_changes_results(self):
        executor = ParallelExecutor(seed=0)
        a = executor.map_tasks(_draw, [1.0, 2.0])
        b = executor.map_tasks(_draw, [1.0, 2.0], seed=1)
        assert not np.array_equal(a[0], b[0])

    def test_per_task_streams_independent(self):
        executor = ParallelExecutor(seed=0)
        results = executor.map_tasks(_draw, [1.0, 1.0, 1.0])
        assert not np.array_equal(results[0], results[1])
        assert not np.array_equal(results[1], results[2])

    def test_repeat_call_reproducible(self):
        executor = ParallelExecutor(backend="thread", max_workers=4, seed=3)
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


class TestRetries:
    def test_transient_failure_recovered_in_parent(self, tmp_path):
        executor = ParallelExecutor(retries=2)
        marker = tmp_path / "attempted.txt"
        results = executor.map_tasks(_fail_once_via_file, [str(marker)])
        assert results == ["recovered"]

    def test_permanent_failure_reports_attempts(self):
        executor = ParallelExecutor(retries=2)
        results = executor.map_tasks(_always_fails, ["t0"])
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 3
        assert failure.error_type == "RuntimeError"

    def test_custom_retry_policy(self, tmp_path):
        from repro.compute.executor import TaskError

        policy = RetryPolicy(
            max_attempts=2, base_delay=0.0, jitter=0.0, retry_on=(TaskError,)
        )
        executor = ParallelExecutor(retry_policy=policy)
        marker = tmp_path / "attempted.txt"
        assert executor.map_tasks(_fail_once_via_file, [str(marker)]) == [
            "recovered"
        ]

    def test_no_retries_by_default(self):
        executor = ParallelExecutor()
        failure = executor.map_tasks(_always_fails, ["t0"])[0]
        assert failure.attempts == 1


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelExecutor(backend="mpi")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelExecutor(max_workers=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ParallelExecutor(retries=-1)


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

    def test_retried_ok_counted(self, tmp_path):
        with scoped() as (registry, _):
            executor = ParallelExecutor(retries=1)
            executor.map_tasks(
                _fail_once_via_file, [str(tmp_path / "marker.txt")]
            )
            tasks = registry.counter("compute_tasks_total")
            assert tasks.value(backend="serial", outcome="retried_ok") == 1


def _pid_task(payload, rng):
    import os

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
        baseline = ParallelExecutor(backend="serial", seed=11)
        expected = np.stack(baseline.map_tasks(_draw, payloads))
        with ParallelExecutor(
            backend="thread", max_workers=max_workers, seed=11
        ) as executor:
            chunks = executor._chunks(payloads, range(len(payloads)))
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
