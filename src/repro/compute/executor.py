"""Pluggable parallel execution engine for offline sweeps.

The paper's offline workloads — bulk dataset generation and seeded grids
of training runs — are embarrassingly parallel.  :class:`ParallelExecutor`
puts one ``map_tasks()`` API in front of three interchangeable backends
(``serial``, ``thread``, ``process``) with four guarantees:

* **Determinism** — results come back in payload order, and the
  executor hands tasks no randomness of its own: every seed a task uses
  is in its payload, so all three backends produce byte-identical
  results.  Scheduling order can never leak into the data.
* **Containment** — a task that raises an ``Exception`` is converted
  into a typed :class:`TaskFailure` in its result slot instead of
  killing the sweep; a hard worker death (e.g. a SIGKILL'd process
  breaking the pool) fails the affected tasks the same way and the
  broken pool is rebuilt on the next call.  ``KeyboardInterrupt`` and
  ``SystemExit`` are not contained.  Nothing is re-attempted: a sweep
  recovers by running again.
* **Warm reuse** — the worker pool is built once per executor lifetime
  and reused across ``map_tasks`` calls (:attr:`pool_starts` counts
  builds); ``close()`` — or the context-manager exit — releases it.
  Tasks are dispatched in chunks to amortize per-future overhead;
  chunking never changes a payload.
* **Observability** — each ``map_tasks`` call opens a ``compute.map`` span,
  feeds per-task timing histograms and outcome counters, and records a
  per-phase breakdown (pool startup / dispatch / task compute / result
  wait) in :attr:`last_map_stats`.

:func:`run_grid` is the one runner every seeded fan-out goes through (a
training sweep, a campaign, the drift matrix, an ensemble).  Its rule:
the parent does each task's verified cache read, only the misses reach
``map_tasks``, in waves of ``max_workers``, and the caller commits each
wave's results in task order before the next wave goes out.  So a fully
cached grid starts no pool, and re-running an interrupted grid is its
resume.

Worker functions have the signature ``fn(payload)`` and — for
``process`` — are importable module-level callables with picklable
payloads and results.  A payload reaches its task as given: a caller
with large arrays hands them over itself (a process training sweep
passes the paths of ``.npy`` files its tasks map).  An optional ``chaos`` hook is invoked with the
task's index in its ``map_tasks`` call before the task runs.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.observability.runtime import get_registry, get_tracer

__all__ = [
    "BACKENDS", "TaskFailure", "ParallelExecutor", "GridResult", "run_grid",
]

BACKENDS = ("serial", "thread", "process")

# Phase keys reported in ParallelExecutor.last_map_stats.
_PHASES = ("pool_startup_s", "dispatch_s", "task_compute_s", "result_wait_s")


@dataclass(frozen=True)
class TaskFailure:
    """A task that raised, or whose worker died.

    Occupies the task's slot in the ``map_tasks`` result list so callers
    keep positional alignment with their payloads; ``error_type`` names
    the original exception class raised in the worker.
    """

    index: int
    label: str
    error_type: str
    message: str


def _execute_task(fn, payload, index, chaos):
    """Run one task; never raises (returns a tagged outcome).

    Module-level so the process backend can pickle it.  Exceptions are
    captured and re-packaged — a raising task must cost one result slot,
    never the pool.
    """
    start = time.perf_counter()
    try:
        if chaos is not None:
            chaos(index)
        result = fn(payload)
        return True, result, None, None, time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 — containment is the contract
        elapsed = time.perf_counter() - start
        return False, None, type(error).__name__, str(error), elapsed


def _execute_chunk(fn, items, chaos):
    """Run ``[(index, payload), ...]`` back-to-back in one dispatch;
    outcomes come back index-tagged, so chunking never reorders them."""
    return [
        (index, _execute_task(fn, payload, index, chaos))
        for index, payload in items
    ]


def _warm_worker(delay_s: float) -> int:
    """No-op task that brings the pool up at creation time.

    A ``fork`` pool starts every worker at its first submission; under
    ``spawn``/``forkserver`` the tiny sleep keeps early workers busy until
    the full complement is up.  Startup is paid (and measured) once.
    """
    time.sleep(delay_s)
    return os.getpid()


class ParallelExecutor:
    """One ``map_tasks()`` API over serial / thread / process backends."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        chaos: Optional[Callable[[int], None]] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if max_workers is not None:
            if not float(max_workers).is_integer():
                raise ValueError(
                    f"max_workers must be a whole number, got {max_workers!r}"
                )
            if max_workers < 1:
                raise ValueError("max_workers must be >= 1")
        self.backend = backend
        self.max_workers = (
            int(max_workers) if max_workers is not None
            else max(os.cpu_count() or 1, 1)
        )
        self.chaos = chaos
        # Warm-pool state: one pool per executor lifetime, rebuilt only
        # after close() or a hard break.
        self._pool: Optional[concurrent.futures.Executor] = None
        self.pool_starts = 0
        self.last_map_stats: Dict[str, object] = {}
        registry = get_registry()
        self._m_tasks = registry.counter(
            "compute_tasks_total", "executor tasks by backend and outcome"
        )
        self._m_task_seconds = registry.histogram(
            "compute_task_seconds", "per-task execution time by backend"
        )
        self._m_pool_starts = registry.counter(
            "compute_pool_starts_total", "worker pools built by backend"
        )
        self._m_phase_seconds = registry.histogram(
            "compute_map_phase_seconds", "map_tasks time by phase"
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the warm pool.

        Idempotent; the executor stays usable — the next ``map_tasks``
        simply pays pool startup again.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        # Best-effort cleanup for executors that were never close()d; the
        # warm pool must not outlive its owner.
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — interpreter may be tearing down
            pass

    def _ensure_pool(self):
        """Return ``(pool, startup_seconds)``; builds and warms on demand."""
        if self._pool is not None:
            return self._pool, 0.0
        start = time.perf_counter()
        if self.backend == "thread":
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.max_workers
            )
        else:
            import multiprocessing  # loaded with the process pool anyway

            context = multiprocessing.get_context()
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
            # Bring every worker up now (see _warm_worker): a fork pool
            # forks them all at the first submit, other start methods
            # spawn on demand while queued warm-ups keep early ones busy.
            if context.get_start_method() == "fork":
                warm_ups = [pool.submit(_warm_worker, 0.0)]
            else:
                warm_ups = [
                    pool.submit(_warm_worker, 0.02)
                    for _ in range(self.max_workers)
                ]
            concurrent.futures.wait(warm_ups)
        self._pool = pool
        self.pool_starts += 1
        self._m_pool_starts.inc(backend=self.backend)
        return pool, time.perf_counter() - start

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next call rebuilds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    # -- the one API ---------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable,
        payloads: Sequence,
        label: str = "map",
    ) -> List:
        """Run ``fn(payload)`` over every payload; order-preserving.

        Returns one entry per payload: the task's return value, or a
        :class:`TaskFailure` if it raised or its worker died.  A task's
        result depends only on its payload, so results are byte-identical
        across ``serial``/``thread``/``process`` and any chunking.
        """
        payloads = list(payloads)
        n = len(payloads)
        failures = 0
        wall_start = time.perf_counter()
        with get_tracer().start_span(
            "compute.map",
            attributes={"backend": self.backend, "tasks": n, "label": label},
        ) as span:
            outcomes, phases = self._run_wave(fn, payloads)
            results: List = [None] * n
            for index, outcome in enumerate(outcomes):
                ok, value, error_type, message, duration = outcome
                self._m_task_seconds.observe(duration, backend=self.backend)
                phases["task_compute_s"] += duration
                if ok:
                    self._m_tasks.inc(backend=self.backend, outcome="ok")
                    results[index] = value
                    continue
                failures += 1
                self._m_tasks.inc(backend=self.backend, outcome="failed")
                results[index] = TaskFailure(
                    index=index, label=label,
                    error_type=error_type, message=message,
                )
            stats: Dict[str, object] = {
                "backend": self.backend,
                "label": label,
                "tasks": n,
                "wall_s": time.perf_counter() - wall_start,
                **phases,
            }
            self.last_map_stats = stats
            for phase in _PHASES:
                self._m_phase_seconds.observe(
                    float(stats[phase]), backend=self.backend, phase=phase
                )
                span.set_attribute(phase, float(stats[phase]))
            span.set_attribute("failures", failures)
        return results

    # -- backend waves -------------------------------------------------------

    def _chunks(self, payloads) -> List[List[tuple]]:
        """Index-tagged task chunks; size amortizes dispatch overhead."""
        items = list(enumerate(payloads))
        # Aim for ~4 chunks per worker: coarse enough to amortize dispatch,
        # fine enough that one slow chunk cannot stall the wave's tail.
        size = max(1, -(-len(items) // (self.max_workers * 4)))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def _run_wave(self, fn, payloads):
        """One parallel pass over all payloads.

        Returns ``(outcomes, phases)``: task ``i``'s outcome tuple and
        the per-phase wall times (the caller adds ``task_compute_s``).
        """
        phases = {phase: 0.0 for phase in _PHASES}
        if self.backend == "serial" or len(payloads) <= 1:
            return [
                _execute_task(fn, payload, index, self.chaos)
                for index, payload in enumerate(payloads)
            ], phases
        pool, phases["pool_startup_s"] = self._ensure_pool()
        chunks = self._chunks(payloads)
        dispatch_start = time.perf_counter()
        futures = [
            pool.submit(_execute_chunk, fn, chunk, self.chaos)
            for chunk in chunks
        ]
        phases["dispatch_s"] = time.perf_counter() - dispatch_start
        outcomes: List[Optional[tuple]] = [None] * len(payloads)
        pool_broken = False
        wait_start = time.perf_counter()
        for chunk, future in zip(chunks, futures):
            try:
                for index, outcome in future.result():
                    outcomes[index] = outcome
            except Exception as error:  # noqa: BLE001
                # A hard worker death (broken pool, unpicklable result)
                # must cost its chunk's tasks, not the sweep: report each
                # like an in-task failure.
                if isinstance(error, concurrent.futures.BrokenExecutor):
                    pool_broken = True
                for index, _payload in chunk:
                    outcomes[index] = (
                        False, None, type(error).__name__, str(error), 0.0
                    )
        phases["result_wait_s"] = time.perf_counter() - wait_start
        if pool_broken:
            self._discard_pool()
        return outcomes, phases

    def __repr__(self) -> str:
        return (
            f"<ParallelExecutor backend={self.backend!r} "
            f"max_workers={self.max_workers} "
            f"pool={'warm' if self._pool is not None else 'cold'}>"
        )


@dataclass
class GridResult:
    """``values[i]``: task ``i``'s cached or computed value, else None;
    each failure's ``index`` is its task's grid position."""

    values: List[object]
    failures: List[TaskFailure]
    cached: int
    computed: int
    failed: int
    paused: bool


def run_grid(
    executor: ParallelExecutor,
    fn: Callable,
    keys: Sequence[Optional[str]],
    payload: Callable[[int], object],
    read: Callable[[str], object],
    label: str,
    max_new: Optional[int] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> GridResult:
    """Map ``fn`` over the tasks whose cache read misses, in waves.

    In the parent: ``read(keys[i])`` for every task (a ``None`` key or
    a ``None`` read is a miss); ``payload(i)`` just before task ``i``'s
    wave goes out; ``on_result(i, value_or_failure)`` after each wave, in
    task order.  Scheduling stops after ``max_new`` misses (``paused``).
    """
    values = [None if key is None else read(key) for key in keys]
    misses = [i for i, value in enumerate(values) if value is None]
    scheduled = misses if max_new is None else misses[:max_new]
    failures: List[TaskFailure] = []
    for start in range(0, len(scheduled), executor.max_workers):
        wave = scheduled[start:start + executor.max_workers]
        outcomes = executor.map_tasks(fn, [payload(i) for i in wave], label)
        for i, outcome in zip(wave, outcomes):
            if isinstance(outcome, TaskFailure):
                outcome = replace(outcome, index=i)
                failures.append(outcome)
            else:
                values[i] = outcome
            if on_result is not None:
                on_result(i, outcome)
    return GridResult(
        values, failures, cached=len(keys) - len(misses),
        computed=len(scheduled) - len(failures), failed=len(failures),
        paused=len(scheduled) < len(misses),
    )
