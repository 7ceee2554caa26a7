"""A hardened concurrent analysis service over any spectrum analyzer.

The paper's case for ANN analysis is that it runs "in milliseconds" and
therefore supports real-time use.  This module supplies the serving shell
that claim needs in production: a fixed pool of worker threads pulling
from a *bounded* queue (back-pressure instead of unbounded memory growth),
per-request deadlines enforced both in the queue and after the analyzer
runs, a :class:`~repro.serving.circuit.CircuitBreaker` over the backend so
a persistently failing analyzer is isolated instead of hammered, input
validation gates at admission, and an output gate that guarantees a
non-finite concentration is never handed to a caller.

Every request terminates in exactly one explicit result:

* :class:`Completed` — validated input, finite output, within deadline;
* :class:`Rejected` — with a machine-readable ``reason`` naming which
  defence fired (``queue_full``, ``deadline_*``, ``circuit_open``,
  ``invalid_input``, ``analyzer_error``, ``nonfinite_output``,
  ``brownout_shed``, ``shutdown``);
* :class:`Abstained` — only when an uncertainty gate is installed (pass
  ``uncertainty=UncertaintyGate(...)``): the input was valid and the
  backend healthy, but the calibrated prediction interval was too wide
  to vouch for the answer, so the service refuses with the interval
  attached instead of serving a confident guess.

There is no other outcome and no hang: the chaos tests drive the service
with malformed spectra, slow analyzers, OOD floods and burst load
concurrently and assert exactly this.

Every request takes one pipeline: a worker dequeues a batch, applies
every defence per row, dispatches the surviving rows to the backend in
one call, and resolves each row by one rule (:func:`row_outcome`).  An
unbatched service is the same pipeline with batches of one.

Two opt-in control layers ride on the same contract:

* **Micro-batching** (pass ``batching=BatchingPolicy(...)``): workers
  coalesce queued requests into one batched analyzer call — dispatching
  when the batch fills *or* an adaptive max-wait expires — with every
  defence re-applied per row: deadlines are re-checked at batch drain
  (an expired request gets ``deadline_exceeded``, never a stale answer),
  validation failures reject only their own row, and a failed
  multi-row call falls back to single-row retries so one poisoned
  request cannot take down its batchmates.  Coalescing never changes
  answers: the batch analyzer contract (see
  :func:`~repro.serving.batching.batch_analyzer_from_model`) keeps a
  row's output byte-identical however it was batched.
* **Brownout degradation** (pass ``governor=BrownoutGovernor(...)``):
  queue depth and completed-request p95 walk the service through
  declared degradation levels — grow batches, tighten admission
  deadlines, shed low-priority work — with hysteresis, surfaced in
  :meth:`AnalysisService.stats` and traced as ``serving.brownout`` span
  events.
* **Frozen inference** (pass ``frozen="float32"`` or ``"int8"`` with a
  built ``Sequential`` as the analyzer): the model is compiled once into
  an :class:`~repro.inference.plan.InferencePlan` and batches execute in
  the :class:`~repro.inference.engine.InferenceEngine`'s preallocated
  scratch instead of the float64 layer-by-layer reference.  The contract
  weakens from byte-identity to accuracy within the plan's pinned MAE
  budget; models with plan-unsupported layers fall back to the reference
  path automatically (``stats()["frozen"]`` reports the effective
  dtype, ``None`` after fallback).  ``validate_at_admission=True``
  additionally moves the per-row validation gate to ``submit()`` so the
  batched drain skips the redundant re-validation (invalid rows are
  still refused exactly once, just earlier).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.observability.runtime import get_registry, get_tracer
from repro.observability.tracing import Tracer
from repro.reliability.validation import ValidationError, validate_spectrum
from repro.serving.batching import (
    BatchingPolicy,
    BrownoutGovernor,
    BrownoutTransition,
    batch_analyzer_from_model,
)
from repro.serving.circuit import CircuitBreaker

__all__ = [
    "Completed",
    "Rejected",
    "Abstained",
    "PendingRequest",
    "AnalysisService",
]

# Batch-size distribution buckets (requests per dispatch, not seconds).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Completed:
    """A successful analysis: finite estimate, in budget."""

    value: np.ndarray
    request_id: int = -1
    analyzer_seconds: float = 0.0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejected:
    """An explicit refusal; ``reason`` names the defence that fired."""

    reason: str
    request_id: int = -1
    latency_s: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return False


@dataclass(frozen=True)
class Abstained:
    """An honest "I don't know": valid input, healthy backend, interval
    too wide to vouch for the point estimate.

    ``value`` is the (finite) point prediction the service declined to
    serve, ``lower``/``upper`` the calibrated interval that was too wide,
    ``reason`` one of the gate's ``REASON_*`` constants.  Not a failure:
    abstention never trips the circuit breaker and never counts against
    a degradation ladder — but ``ok`` is ``False`` because the caller
    did not get an answer it may act on.
    """

    reason: str
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    width: float = float("inf")
    request_id: int = -1
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return False

    @property
    def interval(self):
        return self.lower, self.upper


class PendingRequest:
    """Handle returned by :meth:`AnalysisService.submit`.

    ``result(timeout)`` blocks until the request resolves; on timeout the
    request is resolved as ``Rejected("deadline_exceeded")`` (first
    resolver wins — a worker finishing later finds the request abandoned).
    """

    def __init__(self, request_id: int, data, deadline_at: float, clock,
                 on_resolve=None, priority: int = 0):
        self.request_id = request_id
        self.data = data
        self.deadline_at = deadline_at
        self.priority = int(priority)
        # True once the service validated `data` at admission; the drain
        # paths then skip the redundant re-validation.
        self.prevalidated = False
        self._clock = clock
        self._enqueued_at = float(clock())
        self._resolved_at: Optional[float] = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result = None
        self._on_resolve = on_resolve
        # Trace context installed by the service: the submit span roots the
        # request's trace, the queue span covers time spent waiting.
        self.trace_id: Optional[str] = None
        self._queue_span = None

    @property
    def resolved(self) -> bool:
        return self._event.is_set()

    def latency(self) -> float:
        """Seconds from enqueue to resolution — frozen once resolved.

        While the request is in flight this is the age so far; after
        :meth:`resolve` it reports the latency *at resolution time* and
        never grows again, so ``latency_s`` read later stays stable.
        """
        end = self._resolved_at if self._resolved_at is not None else float(
            self._clock()
        )
        return end - self._enqueued_at

    def resolve(self, result) -> bool:
        """Install ``result`` if nobody beat us to it; True if we won."""
        with self._lock:
            if self._event.is_set():
                return False
            self._resolved_at = float(self._clock())
            self._result = result
            self._event.set()
        if self._on_resolve is not None:
            self._on_resolve(result)
        return True

    def result(self, timeout: Optional[float] = None):
        """The request's outcome; never raises, never returns ``None``."""
        if timeout is None:
            remaining = self.deadline_at - float(self._clock())
            # Grace so a worker that started just under the wire can finish.
            timeout = max(remaining, 0.0) + 1.0
        if not self._event.wait(timeout):
            self.resolve(
                Rejected(
                    reason="deadline_exceeded",
                    request_id=self.request_id,
                    latency_s=self.latency(),
                )
            )
        return self._result


_SHUTDOWN = object()

# swap_analyzer sentinel: "leave the uncertainty gate as it is".
_KEEP = object()

# The drain policy of a service built without batching=: one row per
# dispatch, and the coalescing hold never waits.
_UNBATCHED = BatchingPolicy(max_batch=1, max_wait_s=0.0)

# Row outcomes in which the backend answered: finite and within budget.
_ANSWERED = ("abstained", "completed")


def _outcome_label(result) -> str:
    """The metric/span outcome label for a terminal result."""
    if result.ok:
        return "completed"
    if isinstance(result, Abstained):
        return "abstained"
    return result.reason


def row_outcome(finite: bool, late: bool, abstain: bool) -> str:
    """The terminal outcome of one row the backend answered.

    Precedence is nonfinite → late → abstain → complete: a non-finite
    answer is never served, a correct but late one is never handed back,
    an answer the uncertainty gate distrusts abstains, and only then does
    the row complete.  ``abstained`` and ``completed`` both mean the
    backend answered finite and in budget — what the circuit breaker
    counts as a healthy dispatch.
    """
    if not finite:
        return "nonfinite_output"
    if late:
        return "deadline_exceeded"
    if abstain:
        return "abstained"
    return "completed"


class AnalysisService:
    """Bounded-queue, deadline-aware, circuit-broken analyzer frontend.

    ``analyzer`` follows the closed-loop protocol —
    ``analyzer(intensities) -> (estimate, seconds)`` — or returns the bare
    estimate (the service times it).  ``expected_length``, when given, is
    enforced by the admission validator; pass a custom ``validator``
    (``data -> validated array``, raising
    :class:`~repro.reliability.validation.ValidationError`) for stricter
    gates.  All timing uses the injectable monotonic ``clock``.

    Telemetry is default-on through the process-global registry/tracer
    (:mod:`repro.observability.runtime`) and fully injectable via
    ``registry``/``tracer``: per-outcome request counters and latency
    histograms, queue-depth and in-flight gauges (all labeled
    ``service=name``), and a per-request span chain ``serving.submit →
    serving.queue → serving.resolve`` sharing one ``trace_id`` (exposed
    as ``PendingRequest.trace_id``), plus one ``serving.batch`` span per
    backend dispatch carrying its ``batch_size``, ``first_request_id``
    and ``analyzer_seconds``.  Disabling the registry/tracer reduces
    every instrumentation point to one branch.
    """

    def __init__(
        self,
        analyzer: Callable,
        workers: int = 2,
        queue_size: int = 16,
        default_deadline_s: float = 1.0,
        expected_length: Optional[int] = None,
        validator: Optional[Callable] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "analysis",
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        batching: Optional[BatchingPolicy] = None,
        batch_analyzer: Optional[Callable] = None,
        governor: Optional[BrownoutGovernor] = None,
        shadow_tap: Optional[Callable] = None,
        uncertainty=None,
        frozen: Optional[str] = None,
        validate_at_admission: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        # Frozen serving: `analyzer` is a built Sequential, compiled once
        # into an InferencePlan and served through the InferenceEngine's
        # preallocated-scratch batch path.  Falls back transparently to
        # the reference float64 path when the model has a layer the plan
        # compiler does not support (frozen_dtype stays None then).
        self.frozen_dtype: Optional[str] = None
        if frozen is not None:
            if batch_analyzer is not None:
                raise ValueError(
                    "pass either frozen= or batch_analyzer=, not both"
                )
            model = analyzer
            if not (hasattr(model, "predict")
                    and getattr(model, "built", False)):
                raise ValueError(
                    "frozen= requires a built Sequential model as the "
                    "analyzer"
                )
            batch_analyzer = batch_analyzer_from_model(model, frozen=frozen)
            self.frozen_dtype = batch_analyzer.frozen_dtype
            input_shape = getattr(model, "input_shape", None)
            if (expected_length is None and input_shape is not None
                    and len(input_shape) == 1):
                expected_length = int(input_shape[0])
        if batch_analyzer is not None and batching is None:
            batching = BatchingPolicy()
        self.validate_at_admission = bool(validate_at_admission)
        self.analyzer = analyzer
        self.workers = int(workers)
        self.queue_size = int(queue_size)
        self.default_deadline_s = float(default_deadline_s)
        self.expected_length = expected_length
        self.validator = validator
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.clock = clock
        self.name = str(name)
        self.batching = batching
        self._policy = batching if batching is not None else _UNBATCHED
        self.batch_analyzer = batch_analyzer
        self.governor = governor
        # Shadow tap: called as tap(data, value) after every *served*
        # completion (see set_shadow_tap).  Never on rejections.
        self.shadow_tap = shadow_tap
        # Uncertainty gate: any object with assess(matrix) -> Assessment
        # (see repro.uncertainty.policy.UncertaintyGate).  When set, it
        # replaces the analyzer as the prediction source and every row
        # gains a serve/abstain decision.
        self.uncertainty = uncertainty
        self.model_swaps = 0
        if governor is not None and governor.on_transition is None:
            governor.on_transition = self._on_brownout
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._m_submitted = self.registry.counter(
            "serving_submitted_total", "requests entering submit()"
        )
        self._m_requests = self.registry.counter(
            "serving_requests_total", "resolved requests by final outcome"
        )
        self._m_latency = self.registry.histogram(
            "serving_request_latency_seconds",
            "submit-to-resolve latency by final outcome",
        )
        self._m_queue_depth = self.registry.gauge(
            "serving_queue_depth", "requests waiting in the bounded queue"
        )
        self._m_inflight = self.registry.gauge(
            "serving_inflight_requests", "requests currently in a worker"
        )
        # Its count is the number of successful batched dispatches.
        self._m_batch_size = self.registry.histogram(
            "serving_batch_size",
            "requests coalesced per batched dispatch",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._m_brownout = self.registry.gauge(
            "serving_brownout_level", "current brownout degradation level"
        )
        self._m_swaps = self.registry.counter(
            "serving_model_swaps_total", "hot analyzer swaps"
        )
        self._m_tap_errors = self.registry.counter(
            "serving_shadow_tap_errors_total",
            "shadow tap invocations that raised (served result unaffected)",
        )
        self._m_abstentions = self.registry.counter(
            "serving_abstentions_total",
            "requests refused by the uncertainty gate, by reason",
        )
        self._m_abstain_rate = self.registry.gauge(
            "serving_abstention_rate",
            "abstained fraction of recently answered requests",
        )
        # Bound series: the label sets are fixed per service instance, so
        # the hot path skips the per-call label-key computation.
        self._b_submitted = self._m_submitted.labels(service=self.name)
        self._b_queue_depth = self._m_queue_depth.labels(service=self.name)
        self._b_inflight = self._m_inflight.labels(service=self.name)
        self._b_batch_size = self._m_batch_size.labels(service=self.name)
        self._b_brownout = self._m_brownout.labels(service=self.name)
        self._b_swaps = self._m_swaps.labels(service=self.name)
        self._b_tap_errors = self._m_tap_errors.labels(service=self.name)
        self._b_abstain_rate = self._m_abstain_rate.labels(service=self.name)
        self._b_outcomes: Dict[str, tuple] = {}
        # Every live PendingRequest, so stop() can refuse whatever a hung
        # worker leaves unresolved instead of stranding its caller.
        self._pending: "weakref.WeakSet[PendingRequest]" = weakref.WeakSet()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._threads: List[threading.Thread] = []
        self._ids = itertools.count()
        self._stats_lock = threading.Lock()
        self._running = False
        self.submitted = 0
        self.completed = 0
        self.rejections: Dict[str, int] = {}
        self.abstentions: Dict[str, int] = {}
        # Rolling serve/abstain window over *answered* requests (completed
        # or abstained; queue-level refusals say nothing about the model).
        # Feeds the brownout governor's abstain-rate trigger.
        self._answers = deque(maxlen=64)

    @classmethod
    def from_checkpoint(
        cls,
        manager,
        name: str,
        seed: int = 0,
        expected_length: Optional[int] = None,
        **kwargs,
    ) -> "AnalysisService":
        """Build a service over a verified checkpointed model.

        The model comes off disk through the
        :class:`~repro.reliability.checkpoint.CheckpointManager` verified
        path — checksum check, generational fallback, quarantine — so a
        bit-flipped artifact can never silently serve traffic.  The
        admission gate's ``expected_length`` defaults to the model's own
        input length.
        """
        from repro.serving.loading import analyzer_from_checkpoint

        analyzer, model_length = analyzer_from_checkpoint(
            manager, name, seed=seed
        )
        if expected_length is None:
            expected_length = model_length
        return cls(analyzer, expected_length=expected_length, **kwargs)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AnalysisService":
        if self._running:
            raise RuntimeError("service already running")
        self._running = True
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"analysis-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful drain: queued requests finish, then workers exit.

        Whatever the drain cannot resolve within ``timeout`` — requests
        still queued behind a shutdown marker *and* requests held by a
        worker stuck in the analyzer — is refused as
        ``Rejected("shutdown")``, so no caller blocked in
        :meth:`PendingRequest.result` is ever stranded by a stop.
        """
        if not self._running:
            return
        self._running = False
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        # Anything still queued behind a shutdown marker is refused.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            self._b_queue_depth.dec()
            self._refuse(item, "shutdown")
        # A worker that outlived its join timeout (analyzer hung) may
        # still hold requests in flight; refuse them too.  resolve() is
        # first-wins, so if the worker eventually finishes, its late
        # result is simply dropped.
        for request in list(self._pending):
            if not request.resolved:
                self._refuse(request, "shutdown")

    def __enter__(self) -> "AnalysisService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the public protocol ----------------------------------------------

    def submit(self, intensities, deadline_s: Optional[float] = None,
               priority: int = 0) -> PendingRequest:
        """Enqueue one spectrum; never blocks.

        Load shedding happens here: a full queue resolves the request
        immediately as ``Rejected("queue_full")`` instead of making the
        caller wait behind traffic that will miss its deadline anyway.
        Under brownout the admission deadline is tightened by the active
        level's ``deadline_factor``, and at the deepest levels requests
        whose ``priority`` falls below the level's ``min_priority`` are
        refused outright as ``Rejected("brownout_shed")``.
        """
        if not self._running:
            raise RuntimeError("service is not running; call start() first")
        deadline_s = (
            self.default_deadline_s if deadline_s is None else float(deadline_s)
        )
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        level = None
        if self.governor is not None:
            self._observe_governor()
            level = self.governor.active
            deadline_s *= level.deadline_factor
        request = PendingRequest(
            request_id=next(self._ids),
            data=intensities,
            deadline_at=float(self.clock()) + deadline_s,
            clock=self.clock,
            on_resolve=self._record,
            priority=priority,
        )
        self._pending.add(request)
        with self._stats_lock:
            self.submitted += 1
        self._b_submitted.inc()
        submit_span = self.tracer.start_span(
            "serving.submit",
            attributes={"request_id": request.request_id,
                        "service": self.name},
        )
        request.trace_id = submit_span.trace_id or None
        if (
            level is not None
            and level.min_priority is not None
            and request.priority < level.min_priority
        ):
            submit_span.set_attribute("outcome", "brownout_shed")
            submit_span.end(status="error: brownout_shed")
            self._finish(
                request,
                Rejected(
                    reason="brownout_shed",
                    request_id=request.request_id,
                    detail={
                        "level": level.name,
                        "min_priority": level.min_priority,
                        "priority": request.priority,
                    },
                ),
                parent_span=submit_span,
            )
            return request
        if self.validate_at_admission:
            # Admission-time validation: the drain paths skip their
            # per-row re-validation for prevalidated requests, so a row
            # is gated exactly once either way.  Invalid input never
            # even occupies a queue slot.
            try:
                request.data = self._validate(request.data)
                request.prevalidated = True
            except ValidationError as error:
                submit_span.set_attribute("outcome", "invalid_input")
                submit_span.end(status="error: invalid_input")
                self._finish(
                    request,
                    Rejected(
                        reason="invalid_input",
                        request_id=request.request_id,
                        latency_s=request.latency(),
                        detail={"error": str(error)},
                    ),
                    parent_span=submit_span,
                )
                return request
        # The queue span must be attached before the enqueue: a worker can
        # dequeue the request before put_nowait even returns.
        request._queue_span = self.tracer.start_span(
            "serving.queue", parent=submit_span
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            request._queue_span.end(status="error: queue_full")
            submit_span.set_attribute("outcome", "queue_full")
            submit_span.end(status="error: queue_full")
            self._finish(
                request,
                Rejected(
                    reason="queue_full",
                    request_id=request.request_id,
                    detail={"queue_size": self.queue_size},
                ),
                parent_span=submit_span,
            )
        else:
            self._b_queue_depth.inc()
            submit_span.end()
        return request

    def analyze(self, intensities, deadline_s: Optional[float] = None,
                priority: int = 0):
        """Submit and wait; returns a :class:`Completed`, :class:`Rejected`
        or :class:`Abstained`."""
        return self.submit(
            intensities, deadline_s=deadline_s, priority=priority
        ).result()

    def stats(self) -> Dict[str, object]:
        """Counts plus live telemetry: queue depth, in-flight workers and
        per-outcome p50/p95/p99 latencies from the shared histogram."""
        with self._stats_lock:
            base: Dict[str, object] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejections": dict(self.rejections),
                "abstentions": dict(self.abstentions),
                "abstained": sum(self.abstentions.values()),
                "circuit_state": self.breaker.state,
                "frozen": self.frozen_dtype,
            }
        if self.uncertainty is not None:
            base["abstention_rate"] = self.abstention_rate()
        base["queue_depth"] = self._b_queue_depth.value()
        base["inflight"] = self._b_inflight.value()
        latency: Dict[str, Dict[str, object]] = {}
        for labels in self._m_latency.series_labels():
            if labels.get("service") != self.name:
                continue
            outcome = labels.get("outcome", "")
            latency[outcome] = {
                "count": self._m_latency.count(**labels),
                **self._m_latency.percentiles(**labels),
            }
        base["latency_s"] = latency
        if self.batching is not None:
            batches = self._m_batch_size.count(service=self.name)
            requests = self._m_batch_size.sum(service=self.name)
            base["batching"] = {
                "batches": batches,
                "batched_requests": requests,
                "mean_batch_size": (requests / batches) if batches else None,
                **self._m_batch_size.percentiles(service=self.name),
            }
        if self.governor is not None:
            base["brownout"] = self.governor.snapshot()
        with self._stats_lock:
            base["model_swaps"] = self.model_swaps
        return base

    def abstention_rate(self) -> Optional[float]:
        """Abstained fraction of recently *answered* requests.

        Queue-level refusals are excluded — they say nothing about the
        model's confidence.  ``None`` until the first answer.  This is
        the signal the brownout governor's ``enter_abstain_rate``
        trigger consumes: a surging rate usually means the traffic has
        left the training distribution, and shedding load will not fix
        that — but it does stop the service burning batch capacity on
        rows it will refuse anyway.
        """
        with self._stats_lock:
            if not self._answers:
                return None
            return float(sum(self._answers)) / len(self._answers)

    # -- adaptation hooks ---------------------------------------------------

    def set_shadow_tap(self, tap: Optional[Callable]) -> None:
        """Install (or clear, with ``None``) the shadow tap.

        The tap is called as ``tap(data, value)`` — validated input,
        served finite output — after every completion that *won* its
        resolution, on the worker thread that served it.  It exists so an
        adaptation controller can mirror live traffic onto a candidate
        model without the candidate ever producing a served answer: a tap
        that raises is counted (``serving_shadow_tap_errors_total``) and
        swallowed, and the caller's :class:`Completed` was already
        resolved before the tap ran, so no tap behaviour — slow, broken,
        or poisoned — can change, delay-reject, or duplicate a result.
        """
        self.shadow_tap = tap

    def swap_analyzer(
        self,
        analyzer: Callable,
        batch_analyzer: Optional[Callable] = None,
        uncertainty=_KEEP,
    ) -> None:
        """Hot-swap the backend model without a restart or a dropped request.

        In-flight requests finish against whichever analyzer they already
        dereferenced; everything dequeued after the swap is served by the
        new one.  ``batch_analyzer`` *always* replaces the old batched
        backend — passing ``None`` clears it rather than leaving a stale
        batched path serving the previous model (the service then maps
        the single-request analyzer over batches).

        ``uncertainty`` defaults to *keep the current gate* (existing
        callers — the adaptation controller included — are unaware of
        gates).  Pass a new gate to swap it atomically with the model,
        or ``None`` to remove gating.  A service serving through a gate
        ignores the analyzers for predictions, so swapping the model
        under an unchanged gate only affects the ungated fallback paths;
        swap the gate too when its predictor should follow the model.
        """
        span = self.tracer.start_span(
            "serving.swap", attributes={"service": self.name}
        )
        self.analyzer = analyzer
        self.batch_analyzer = batch_analyzer
        if uncertainty is not _KEEP:
            self.uncertainty = uncertainty
        with self._stats_lock:
            self.model_swaps += 1
        self._b_swaps.inc()
        span.end()

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        """Worker loop: coalesce a batch, process it, repeat.

        Consumes exactly one shutdown marker before exiting, whether it
        arrives between batches or mid-drain.
        """
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            keep_running = True
            try:
                keep_running = self._drain(batch)
                self._process_batch(batch)
            except Exception as error:  # a defence itself failed: refuse
                # what this worker dequeued, and never let it die and
                # strand the queue.
                for request in batch:
                    if not request.resolved:
                        self._refuse(
                            request,
                            "internal_error",
                            error=f"{type(error).__name__}: {error}",
                        )
            if not keep_running:
                return

    def _drain(self, batch: List[PendingRequest]) -> bool:
        """Coalesce queued requests onto ``batch`` (holding its first).

        Appends in place, so whatever this worker dequeued is in
        ``batch`` even if the drain fails.  Returns ``False`` when a
        shutdown marker was consumed — the worker must exit after
        finishing this batch.
        """
        self._b_queue_depth.dec()
        cap = self._policy.max_batch
        if self.governor is not None:
            self._observe_governor()
            if self.batching is not None:
                cap = self._policy.cap_for(self.governor.active.batch_growth)
        if cap == 1:  # a batch of one is full at its first request
            return True
        hold_until = float(self.clock()) + self._policy.wait_for(
            self._queue.qsize(), self.queue_size
        )
        while len(batch) < cap:
            remaining = hold_until - float(self.clock())
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    # Wait expired: sweep whatever is already queued, but
                    # never hold the batch open for future arrivals.
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return False
            self._b_queue_depth.dec()
            batch.append(item)
        return True

    def _process_batch(self, batch: List[PendingRequest]) -> None:
        """Run one coalesced batch with every defence applied per row."""
        self._b_inflight.inc()
        try:
            now = float(self.clock())
            admitted = []
            for request in batch:
                if request._queue_span is not None:
                    request._queue_span.end()
                if request.resolved:  # caller gave up while queued
                    continue
                # Deadline re-check at drain: an expired request is
                # refused here, never given a stale (or late) answer.
                if now >= request.deadline_at:
                    self._refuse(request, "deadline_expired_in_queue")
                else:
                    admitted.append(request)
            if not admitted:
                return
            if not self.breaker.allow():
                for request in admitted:
                    self._refuse(request, "circuit_open")
                return
            # Per-row validation gate: a malformed spectrum rejects only
            # its own request, never its batchmates.  Rows validated at
            # admission are not re-gated here.
            valid = []
            for request in admitted:
                if request.prevalidated:
                    valid.append((request, request.data))
                    continue
                try:
                    valid.append((request, self._validate(request.data)))
                except ValidationError as error:
                    self._refuse(request, "invalid_input", error=str(error))
            if not valid:
                # Bad input is the callers' fault, not the backend's: a
                # success, which also releases a half-open probe slot.
                self.breaker.record_success()
                return
            batch_span = self.tracer.start_span(
                "serving.batch",
                attributes={
                    "service": self.name,
                    "batch_size": len(valid),
                    "first_request_id": valid[0][0].request_id,
                },
            )
            try:
                values, seconds, assessment = self._call_backend(
                    valid, batch_span
                )
            except Exception as error:
                batch_span.set_attribute("fallback", len(valid) > 1)
                batch_span.end(status=f"error: {type(error).__name__}")
                if len(valid) > 1:
                    results, answered = self._batch_fallback(valid, error)
                else:
                    # A lone row has no batchmates to protect; retrying
                    # it would only call a failing backend twice.
                    request = valid[0][0]
                    results = [(request, self._analyzer_error(request, error))]
                    answered = False
            else:
                if self.batching is not None:  # stats()["batching"] only
                    self._b_batch_size.observe(len(valid))
                batch_span.set_attribute("analyzer_seconds", sum(seconds))
                batch_span.end()
                results, answered = self._row_results(
                    valid, values, seconds, assessment
                )
            self._resolve(results, answered)
        finally:
            self._b_inflight.dec()

    def _call_backend(self, rows, span):
        """One backend call over validated ``(request, data)`` rows.

        Returns ``(values, seconds, assessment)``: the answers, one row
        per input; each row's analyzer seconds; and the uncertainty
        gate's assessment, or ``None`` when ungated.  Without a batched
        backend the single-request analyzer runs once per row on that
        row alone — the bytes it would return unbatched — and a
        ``(value, seconds)`` analyzer's own timing is kept per row.
        """
        gate = self.uncertainty
        batch_analyzer = self.batch_analyzer
        if gate is None and batch_analyzer is None:
            analyzer = self.analyzer
            answers, seconds = [], []
            for _, data in rows:
                started = float(self.clock())
                value = analyzer(data)
                if isinstance(value, tuple) and len(value) == 2:
                    value, reported = value
                    seconds.append(float(reported))
                else:
                    seconds.append(float(self.clock()) - started)
                answers.append(value)
            return np.array(answers, dtype=np.float64), seconds, None
        matrix = np.array([data for _, data in rows])
        started = float(self.clock())
        assessment = None
        if gate is not None:
            assessment = self._assess(
                gate, matrix, span, rows[0][0].request_id
            )
            values = np.asarray(assessment.mean, dtype=np.float64)
        else:
            values = np.asarray(batch_analyzer(matrix), dtype=np.float64)
        if values.shape[0] != len(rows):
            raise RuntimeError(
                f"batch analyzer returned {values.shape[0]} rows "
                f"for {len(rows)} inputs"
            )
        share = (float(self.clock()) - started) / len(rows)
        return values, [share] * len(rows), assessment

    def _row_results(self, rows, values, seconds, assessment):
        """Each dispatched row's terminal result, by :func:`row_outcome`.

        Returns ``(results, answered)``: ``(request, result)`` pairs and
        whether any row came back finite and within its deadline.
        """
        now = float(self.clock())
        all_finite = bool(np.isfinite(values).all())
        results, answered = [], False
        for index, (request, _) in enumerate(rows):
            outcome = row_outcome(
                all_finite or bool(np.isfinite(values[index]).all()),
                now >= request.deadline_at,
                assessment is not None and bool(assessment.abstain[index]),
            )
            answered = answered or outcome in _ANSWERED
            if outcome == "completed":
                result = Completed(
                    value=values[index].copy(),
                    request_id=request.request_id,
                    analyzer_seconds=seconds[index],
                    latency_s=request.latency(),
                )
            elif outcome == "abstained":
                result = self._abstained(request, assessment, index)
            else:
                result = Rejected(
                    reason=outcome,
                    request_id=request.request_id,
                    latency_s=request.latency(),
                    detail={"analyzer_seconds": seconds[index]},
                )
            results.append((request, result))
        return results, answered

    def _batch_fallback(self, valid, batch_error: Exception):
        """Single-row retries after a failed multi-row batch call.

        One poisoned request must not take down its batchmates: each row
        is retried alone (through the same backend, so answers stay
        byte-identical) and only its own failure rejects it.  Returns
        ``(results, answered)`` for the whole episode, which the breaker
        records as one dispatch.
        """
        results, answered = [], False
        for row in valid:
            request = row[0]
            if request.resolved:
                continue
            try:
                values, seconds, assessment = self._call_backend(
                    [row], request._queue_span
                )
            except Exception as error:
                results.append((
                    request,
                    self._analyzer_error(request, error, batch_error),
                ))
                continue
            row_results, row_answered = self._row_results(
                [row], values, seconds, assessment
            )
            results.extend(row_results)
            answered = answered or row_answered
        return results, answered

    def _resolve(self, results, answered: bool) -> None:
        """Record one dispatch with the breaker, then resolve its rows.

        The dispatch is the breaker's unit of work: healthy iff at least
        one row came back finite and within its deadline, so a backend
        that raises, answers non-finite, or is chronically slow trips it
        alike.  Recording before any caller is released keeps the
        breaker current for whatever that caller submits next.
        """
        if answered:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        for request, result in results:
            self._finish(request, result, parent_span=request._queue_span)

    # -- brownout ----------------------------------------------------------

    def _observe_governor(self) -> int:
        return self.governor.maybe_observe(
            self._queue.qsize() / self.queue_size,
            self._completed_p95,
            abstain_rate_fn=(
                self.abstention_rate if self.uncertainty is not None else None
            ),
        )

    def _completed_p95(self) -> Optional[float]:
        return self._m_latency.percentile(
            95.0, outcome="completed", service=self.name
        )

    def _on_brownout(self, transition: BrownoutTransition) -> None:
        """Default governor callback: gauge + a span event per transition."""
        self._b_brownout.set(transition.to_level)
        span = self.tracer.start_span(
            "serving.brownout",
            attributes={
                "service": self.name,
                "from_level": transition.from_level,
                "to_level": transition.to_level,
                "queue_fill": round(transition.queue_fill, 4),
            },
        )
        span.add_event(
            "brownout_transition",
            {
                "from": self.governor.levels[transition.from_level].name,
                "to": self.governor.levels[transition.to_level].name,
                "p95_s": transition.p95_s,
            },
        )
        span.end()

    def _validate(self, data) -> np.ndarray:
        if self.validator is not None:
            return self.validator(data)
        return validate_spectrum(data, length=self.expected_length)

    def _assess(self, gate, matrix: np.ndarray, parent_span,
                first_request_id: int):
        """Run the uncertainty ``gate`` under its own span."""
        span = self.tracer.start_span(
            "serving.uncertainty",
            parent=parent_span,
            attributes={
                "service": self.name,
                "rows": int(matrix.shape[0]),
                "first_request_id": first_request_id,
            },
        )
        try:
            assessment = gate.assess(matrix)
        except Exception as error:
            span.end(status=f"error: {type(error).__name__}")
            raise
        span.set_attribute("abstained_rows", int(assessment.abstain.sum()))
        span.end()
        return assessment

    def _abstained(self, request: PendingRequest, assessment, row: int):
        """Build the ``Abstained`` result for one assessed row."""
        lower, upper = assessment.row_interval(row)
        return Abstained(
            reason=assessment.reasons[row],
            value=np.asarray(assessment.mean[row], dtype=np.float64).copy(),
            lower=np.asarray(lower, dtype=np.float64).copy(),
            upper=np.asarray(upper, dtype=np.float64).copy(),
            width=float(assessment.width[row]),
            request_id=request.request_id,
            latency_s=request.latency(),
        )

    # -- bookkeeping -------------------------------------------------------

    def _analyzer_error(self, request: PendingRequest, error: Exception,
                        batch_error: Optional[Exception] = None) -> Rejected:
        """The ``Rejected`` for a row the backend raised on."""
        detail = {"error": f"{type(error).__name__}: {error}"}
        if batch_error is not None:
            detail["batch_error"] = (
                f"{type(batch_error).__name__}: {batch_error}"
            )
        return Rejected(
            reason="analyzer_error",
            request_id=request.request_id,
            latency_s=request.latency(),
            detail=detail,
        )

    def _refuse(self, request: PendingRequest, reason: str, **detail) -> None:
        """Resolve a dequeued request as ``Rejected(reason)``.

        Ends its queue span first (a no-op once the drain has ended it)
        and parents the resolve span on it, keeping the trace chain.
        """
        queue_span = request._queue_span
        if queue_span is not None:
            queue_span.end(status=f"error: {reason}")
        self._finish(
            request,
            Rejected(
                reason=reason,
                request_id=request.request_id,
                latency_s=request.latency(),
                detail=detail,
            ),
            parent_span=queue_span,
        )

    def _finish(self, request: PendingRequest, result, parent_span=None) -> None:
        """Resolve under a ``serving.resolve`` span closing the trace chain."""
        outcome = _outcome_label(result)
        span = self.tracer.start_span(
            "serving.resolve",
            parent=parent_span,
            attributes={"request_id": request.request_id, "outcome": outcome},
        )
        if request.resolve(result):
            span.end()
            # Mirror the served (data, value) pair to the shadow tap.  The
            # caller already has its answer; a failing tap is recorded and
            # contained here, never surfaced as a serving outcome.
            tap = self.shadow_tap
            if tap is not None and result.ok:
                try:
                    tap(request.data, result.value)
                except Exception:
                    self._b_tap_errors.inc()
        else:
            span.end(status="error: already_resolved")

    def _record(self, result) -> None:
        """Count every resolution exactly once, whoever resolved it."""
        outcome = _outcome_label(result)
        with self._stats_lock:
            if isinstance(result, Completed):
                self.completed += 1
                self._answers.append(0)
                self._b_abstain_rate.set(
                    sum(self._answers) / len(self._answers)
                )
            elif isinstance(result, Abstained):
                self.abstentions[result.reason] = (
                    self.abstentions.get(result.reason, 0) + 1
                )
                self._answers.append(1)
                self._b_abstain_rate.set(
                    sum(self._answers) / len(self._answers)
                )
                self._m_abstentions.inc(
                    service=self.name, reason=result.reason
                )
            else:
                self.rejections[result.reason] = (
                    self.rejections.get(result.reason, 0) + 1
                )
        bound = self._b_outcomes.get(outcome)
        if bound is None:
            # Racing threads may build duplicates; they share one series.
            bound = self._b_outcomes[outcome] = (
                self._m_requests.labels(outcome=outcome, service=self.name),
                self._m_latency.labels(outcome=outcome, service=self.name),
            )
        bound[0].inc()
        bound[1].observe(result.latency_s)
