#!/usr/bin/env python
"""Hardened concurrent serving of an ANN spectrum analyzer.

The paper argues ANN analysis runs "within milliseconds" and therefore
suits real-time monitoring.  In production the network sits behind traffic
that is bursty, occasionally malformed, and backed by hardware that can
fail.  This example wraps a trained network in
:class:`~repro.serving.AnalysisService` — bounded queue, per-request
deadlines, admission validation, output finiteness gate, circuit breaker —
and walks through each defence:

1. normal traffic is analyzed concurrently by a worker pool;
2. malformed spectra (NaN channels, wrong length) are refused at admission
   with ``Rejected("invalid_input")``;
3. a burst beyond queue capacity is shed with ``Rejected("queue_full")``
   instead of growing an unbounded backlog;
4. a crashing backend opens the circuit breaker; once it heals, a probe
   request closes the circuit and service resumes.

Every request is traced and counted by the observability layer; pass
``--telemetry-dir DIR`` to export the collected spans and metric series as
JSONL (render them with ``python -m repro.cli telemetry --spans ...``).

With ``--batched`` the service additionally coalesces queued requests
into batched forward passes (:class:`~repro.serving.BatchingPolicy`) and
runs a :class:`~repro.serving.BrownoutGovernor`: under the burst in step
3 the governor escalates through its two degradation levels on queue
fill (grow batches → tighten deadlines) and the live transitions show
up both on stdout and as ``serving.brownout`` spans in the telemetry
dump.

Run:  python examples/hardened_serving.py [--batched] [--telemetry-dir DIR]
"""

import argparse
import os
import threading
import time

import numpy as np

from repro import nn
from repro.observability import (
    export_metrics_jsonl,
    export_spans_jsonl,
    get_registry,
    get_tracer,
)
from repro.serving import (
    AnalysisService,
    BatchingPolicy,
    BrownoutGovernor,
    CircuitBreaker,
    batch_analyzer_from_model,
)

LENGTH = 64
COMPOUNDS = ("N2", "O2", "CO2")


def make_network(rng):
    """A tiny softmax concentration net (standing in for a trained model)."""
    model = nn.Sequential(
        [
            nn.Dense(32, activation="relu"),
            nn.Dense(len(COMPOUNDS), activation="softmax"),
        ]
    )
    model.build((LENGTH,), seed=0)
    model.compile(nn.Adam(0.01, clipnorm=5.0), "mae")
    x = rng.random((256, LENGTH))
    y = np.abs(x[:, : len(COMPOUNDS)]) + 0.1
    y = y / y.sum(axis=1, keepdims=True)
    model.fit(x, y, epochs=3, batch_size=32, seed=0)
    return model


class Backend:
    """The analyzer callable, with a switch to simulate an outage."""

    def __init__(self, model):
        self.model = model
        self.healthy = True
        self._batched = batch_analyzer_from_model(model)

    def __call__(self, data):
        if not self.healthy:
            raise RuntimeError("analyzer backend offline")
        return self.model.predict(data[None, :], validate=False)[0]

    def batch(self, matrix):
        """Batched entry point for ``--batched`` — same outage switch."""
        if not self.healthy:
            raise RuntimeError("analyzer backend offline")
        return self._batched(matrix)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--telemetry-dir",
        help="export collected spans/metrics as JSONL into this directory",
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="coalesce queued requests into batched forward passes and "
             "run the brownout load governor",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    print("training the analyzer network ...")
    backend = Backend(make_network(rng))

    governor = None
    if args.batched:
        governor = BrownoutGovernor(levels=BrownoutGovernor.default_levels())

    breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=0.3)
    service = AnalysisService(
        backend,
        workers=2,
        queue_size=8,
        default_deadline_s=0.5,
        expected_length=LENGTH,
        breaker=breaker,
        batching=BatchingPolicy(max_batch=16) if args.batched else None,
        batch_analyzer=backend.batch if args.batched else None,
        governor=governor,
    )

    if governor is not None:
        # The service wired governor.on_transition to its own handler
        # (gauge + span).  Wrap it so level changes also print live.
        record_transition = governor.on_transition

        def announce(transition):
            names = [level.name for level in governor.levels]
            print(f"    [brownout] {names[transition.from_level]!r} -> "
                  f"{names[transition.to_level]!r} "
                  f"(queue fill {transition.queue_fill:.2f})")
            record_transition(transition)

        governor.on_transition = announce

    with service:
        # 1 -- normal concurrent traffic.
        results = [service.analyze(rng.random(LENGTH)) for _ in range(8)]
        print(f"\n[1] normal traffic: {sum(r.ok for r in results)}/8 analyzed; "
              f"e.g. {np.round(results[0].value, 3)} "
              f"in {1000 * results[0].latency_s:.2f} ms")

        # 2 -- malformed spectra are refused at admission.
        nan_spectrum = rng.random(LENGTH)
        nan_spectrum[5] = np.nan
        for bad, label in [(nan_spectrum, "NaN channel"),
                           (rng.random(LENGTH + 9), "wrong length")]:
            result = service.analyze(bad)
            print(f"[2] {label}: rejected, reason={result.reason!r}")

        # 3 -- burst load beyond queue capacity is shed explicitly.
        def flood(requests):
            for _ in range(40):
                requests.append(service.submit(rng.random(LENGTH)))

        requests = []
        threads = [threading.Thread(target=flood, args=(requests,))
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcomes = [r.result(timeout=5.0) for r in requests]
        shed = sum(1 for o in outcomes if not o.ok and o.reason == "queue_full")
        done = sum(1 for o in outcomes if o.ok)
        print(f"[3] burst of {len(outcomes)}: {done} analyzed, "
              f"{shed} shed with 'queue_full' (queue stayed bounded)")

        # 4 -- backend outage opens the breaker; healing closes it.
        backend.healthy = False
        reasons = [service.analyze(rng.random(LENGTH)).reason for _ in range(6)]
        print(f"[4] outage: reasons seen {sorted(set(reasons))}; "
              f"circuit is now {breaker.state!r}")
        backend.healthy = True
        time.sleep(0.4)  # past the recovery cooldown
        result = service.analyze(rng.random(LENGTH))
        print(f"    healed: probe {'analyzed' if result.ok else 'refused'}, "
              f"circuit is {breaker.state!r}")

        stats = service.stats()
    print(f"\nstats: {stats['completed']} completed, "
          f"rejections by reason {stats['rejections']}")
    p95 = stats["latency_s"].get("completed", {}).get("p95")
    if p95 is not None:
        print(f"completed-request latency p95: {1000 * p95:.2f} ms")
    if args.batched:
        batching = stats["batching"]
        brownout = stats["brownout"]
        print(f"batching: {batching['batched_requests']} requests coalesced "
              f"into {batching['batches']} batches "
              f"(mean size {batching['mean_batch_size']:.1f})")
        print(f"brownout: {brownout['transitions']} level transitions, "
              f"currently {brownout['name']!r}")

    if args.telemetry_dir:
        os.makedirs(args.telemetry_dir, exist_ok=True)
        spans_path = os.path.join(args.telemetry_dir, "spans.jsonl")
        metrics_path = os.path.join(args.telemetry_dir, "metrics.jsonl")
        export_spans_jsonl(get_tracer(), spans_path)
        export_metrics_jsonl(get_registry(), metrics_path)
        print(f"telemetry exported to {spans_path} and {metrics_path}")


if __name__ == "__main__":
    main()
