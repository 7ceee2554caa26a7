#!/usr/bin/env python
"""A tour of the observability layer on a train-then-serve cycle.

Telemetry in this codebase is default-on: training loops, the serving
service, the artifact cache, retries, and the durable store all write into one
process-global :class:`~repro.observability.MetricsRegistry` and
:class:`~repro.observability.Tracer` without any setup.  This example
runs a tiny end-to-end cycle and then inspects what was collected:

1. train a small concentration network (``train.epoch``/``train.batch``
   spans, loss gauges, epoch timings);
2. serve a handful of requests through :class:`~repro.serving.AnalysisService`
   (submit → queue → resolve span chains plus a ``serving.batch`` span per
   analyzer call, latency histograms);
3. print the combined text report with
   :func:`~repro.observability.text_dump`;
4. persist the metrics snapshot as a provenance artifact with
   :func:`~repro.observability.snapshot_to_provenance`, linking run
   telemetry into the same lineage graph that tracks trained models.

Run:  python examples/observability_tour.py
"""

import numpy as np

from repro import nn
from repro.db import DocumentStore
from repro.observability import get_registry, snapshot_to_provenance, text_dump
from repro.serving import AnalysisService

LENGTH = 48
COMPOUNDS = ("N2", "O2", "CO2")


def main():
    rng = np.random.default_rng(0)

    # 1 -- train: every epoch and batch below is traced automatically.
    print("[1] training a small network (telemetry on by default) ...")
    model = nn.Sequential(
        [
            nn.Dense(24, activation="relu"),
            nn.Dense(len(COMPOUNDS), activation="softmax"),
        ]
    )
    model.build((LENGTH,), seed=0)
    model.compile(nn.Adam(0.01), "mae")
    x = rng.random((192, LENGTH))
    y = np.abs(x[:, : len(COMPOUNDS)]) + 0.1
    y = y / y.sum(axis=1, keepdims=True)
    model.fit(x, y, epochs=4, batch_size=32, seed=0,
              validation_data=(x[:32], y[:32]))

    # 2 -- serve: each request leaves a submit→queue→resolve chain.
    print("[2] serving 12 requests (plus one malformed) ...")
    service = AnalysisService(
        lambda data: model.predict(data[None, :], validate=False)[0],
        workers=2,
        queue_size=8,
        expected_length=LENGTH,
        name="tour",
    )
    with service:
        for _ in range(12):
            service.analyze(rng.random(LENGTH))
        service.analyze(rng.random(LENGTH + 5))  # refused at admission
        stats = service.stats()
    latency = stats["latency_s"]["completed"]
    print(f"    completed={stats['completed']} "
          f"p50={1000 * latency['p50']:.2f} ms "
          f"p95={1000 * latency['p95']:.2f} ms")

    # 3 -- one readable report of everything the process collected.
    print("\n[3] text dump of the global registry and tracer:\n")
    print(text_dump())

    # 4 -- metrics snapshots are provenance artifacts like anything else.
    store = DocumentStore()
    artifact_id = snapshot_to_provenance(
        store=store, metadata={"run": "observability_tour"}
    )
    n_series = sum(
        len(metric["series"])
        for metric in get_registry().snapshot()["metrics"]
    )
    print(f"[4] snapshot of {n_series} metric series saved as "
          f"provenance artifact {artifact_id}")


if __name__ == "__main__":
    main()
