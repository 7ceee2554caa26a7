"""Overload soak: the batched service must degrade, never collapse.

Drives a batched, brownout-governed :class:`AnalysisService` through
sustained overload with injected slow-model faults and burst arrivals,
and asserts the robustness contract the serving layer promises:

* every submitted request resolves — no deadlock, no stranded caller;
* **zero deadline-violating responses**: a ``Completed`` result is never
  handed back after its requested deadline (shed paths reject instead);
* overload is shed explicitly (``queue_full`` / deadline rejections),
  while goodput survives — the service keeps completing work during and
  after the storm;
* the brownout governor demonstrably escalates under pressure and the
  service recovers to serving normally once the fault clears;
* coalescing never changes answers: healthy-phase results are
  byte-identical to the reference batched forward pass.
"""

import threading
import time

import numpy as np

from repro import nn
from repro.observability import MetricsRegistry, Tracer
from repro.serving import (
    AnalysisService,
    BatchingPolicy,
    BrownoutGovernor,
    BrownoutLevel,
    CircuitBreaker,
    Completed,
    Rejected,
    batch_analyzer_from_model,
)

LENGTH = 32
OUTPUTS = 3

KNOWN_REASONS = {
    "queue_full",
    "deadline_expired_in_queue",
    "deadline_exceeded",
    "circuit_open",
    "invalid_input",
    "analyzer_error",
    "nonfinite_output",
    "internal_error",
    "shutdown",
}


class SlowableBackend:
    """The batched backend with an injectable slow-model fault."""

    def __init__(self, model):
        self._inner = batch_analyzer_from_model(model)
        self.slow_s = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, matrix):
        with self._lock:
            self.calls += 1
            slow_s = self.slow_s
        if slow_s > 0.0:
            time.sleep(slow_s)
        return self._inner(matrix)


def _network():
    model = nn.Sequential(
        [nn.Dense(8, activation="relu"),
         nn.Dense(OUTPUTS, activation="softmax")]
    )
    model.build((LENGTH,), seed=0)
    model.compile(nn.Adam(0.01), "mae")
    return model


def test_overload_soak_sheds_gracefully():
    model = _network()
    backend = SlowableBackend(model)
    governor = BrownoutGovernor(
        levels=[
            BrownoutLevel(name="grow_batch", enter_fill=0.30,
                          batch_growth=2.0),
            BrownoutLevel(name="tighten_deadlines", enter_fill=0.50,
                          batch_growth=2.0, deadline_factor=0.5),
        ],
        hold_s=0.2,
    )
    service = AnalysisService(
        lambda data: model.predict(data[None, :], validate=False)[0],
        workers=2,
        queue_size=16,
        default_deadline_s=0.5,
        expected_length=LENGTH,
        breaker=CircuitBreaker(failure_threshold=8, recovery_time_s=0.2),
        batching=BatchingPolicy(max_batch=8, max_wait_s=0.001),
        batch_analyzer=backend,
        governor=governor,
        name="soak",
        registry=MetricsRegistry(),
        tracer=Tracer(max_spans=50_000),
    )

    rng = np.random.default_rng(0)
    spectra = rng.random((64, LENGTH))
    reference = batch_analyzer_from_model(model)(spectra)
    # (request, requested_deadline_s) for the global deadline audit.
    audited = []
    audited_lock = threading.Lock()

    def submit(data, deadline_s=0.5):
        request = service.submit(data, deadline_s=deadline_s)
        with audited_lock:
            audited.append((request, deadline_s))
        return request

    with service:
        # -- phase 1: healthy steady load — answers must be bit-exact ----
        # Paced in waves below queue capacity so nothing sheds; each wave
        # still arrives concurrently, so coalescing actually happens.
        healthy_results = []
        for wave_start in range(0, len(spectra), 8):
            wave = [submit(row, deadline_s=5.0)
                    for row in spectra[wave_start:wave_start + 8]]
            healthy_results.extend(r.result(timeout=10.0) for r in wave)
        assert all(r.ok for r in healthy_results)
        for index, result in enumerate(healthy_results):
            assert result.value.tobytes() == reference[index].tobytes(), (
                "batched result differs from the reference forward pass"
            )

        # -- phase 2: slow-model fault + burst arrivals ------------------
        backend.slow_s = 0.05
        burst = []

        def flood(seed):
            flood_rng = np.random.default_rng(seed)
            for _ in range(60):
                request = submit(flood_rng.random(LENGTH), deadline_s=0.3)
                with audited_lock:
                    burst.append(request)

        threads = [threading.Thread(target=flood, args=(seed,))
                   for seed in range(3)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "submitter deadlocked"
        burst_results = [r.result(timeout=30.0) for r in burst]
        soak_elapsed = time.monotonic() - start
        assert soak_elapsed < 60.0, "overload soak wedged"
        assert all(r is not None for r in burst_results), (
            "a request never resolved under overload"
        )
        shed = [r for r in burst_results if not r.ok]
        assert shed, "overload produced no explicit shedding"
        assert all(r.reason in KNOWN_REASONS for r in shed)
        # Goodput does not collapse to zero under 2x+ offered overload.
        assert any(r.ok for r in burst_results), (
            "overload starved every request — shed is graceful, not total"
        )
        # The governor demonstrably escalated under pressure.
        assert any(t.to_level >= 1 for t in governor.transitions), (
            "brownout governor never escalated during the storm"
        )

        # -- phase 3: fault clears; the service recovers -----------------
        backend.slow_s = 0.0
        deadline = time.monotonic() + 10.0
        recovered = False
        while time.monotonic() < deadline:
            request = submit(spectra[0], deadline_s=2.0)
            if request.result(timeout=5.0).ok:
                recovered = True
                break
        assert recovered, "service never recovered after the fault cleared"

        stats = service.stats()

    # -- global audit: zero deadline-violating responses -----------------
    for request, deadline_s in audited:
        result = request.result(timeout=1.0)
        assert isinstance(result, (Completed, Rejected))
        if result.ok:
            # latency is frozen at resolution: a completed answer must
            # have been delivered inside the deadline the caller asked
            # for (brownout tightening only ever shrinks it).
            assert result.latency_s <= deadline_s + 0.05, (
                f"request {result.request_id} completed "
                f"{result.latency_s:.3f}s after submit against a "
                f"{deadline_s}s deadline"
            )
            assert np.isfinite(result.value).all()
        else:
            assert result.reason in KNOWN_REASONS

    # Exactly-once accounting survived the storm.
    assert stats["completed"] >= 1
    assert stats["completed"] + sum(stats["rejections"].values()) <= (
        stats["submitted"]
    )
    assert stats["brownout"]["transitions"] >= 1
    assert stats["batching"]["batches"] >= 1
