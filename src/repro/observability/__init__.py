"""Observability: metrics, tracing spans and telemetry export.

The paper's Tool 4 records full provenance of every automated
train/evaluate run; the ROADMAP's north star is a production service.
Both need to *see inside* the system, so this package supplies the three
standard pillars as a stdlib-only leaf:

* :mod:`repro.observability.metrics` — thread-safe
  :class:`MetricsRegistry` with labeled :class:`Counter` / :class:`Gauge`
  / :class:`Histogram` families; histograms use fixed buckets and answer
  p50/p95/p99 queries from bucket counts;
* :mod:`repro.observability.tracing` — :class:`Tracer` producing nested
  :class:`Span` context managers (span/parent/trace ids, status,
  attributes) collected into a bounded in-memory deque;
* :mod:`repro.observability.export` — JSONL export of spans and metric
  snapshots, a human-readable :func:`text_dump`, and
  :func:`snapshot_to_provenance` bridging a snapshot into the
  :class:`~repro.db.provenance.ProvenanceTracker` DAG;
* :mod:`repro.observability.runtime` — the default-on process-global
  registry/tracer every instrumented subsystem falls back to, with
  :func:`disable`/:func:`scoped` for isolation.

Instrumentation is wired through ``nn.training``, ``core.training_service``,
``serving``, ``compute.cache``, ``reliability.retry``, ``db`` and
``storage.journal``; every instrumented constructor accepts explicit
``registry=``/``tracer=`` overrides, and a disabled registry or tracer
costs one branch per call site.

Layering: ``observability`` imports only the standard library at import
time (the provenance bridge imports :mod:`repro.db` lazily), so every
other package may depend on it.
"""

from repro.observability.export import (
    export_metrics_jsonl,
    export_spans_jsonl,
    format_metric_dicts,
    format_span_dicts,
    read_jsonl,
    snapshot_to_provenance,
    text_dump,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.runtime import (
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    get_tracer,
    histogram,
    scoped,
    set_registry,
    set_tracer,
)
from repro.observability.tracing import STATUS_OK, STATUS_UNSET, Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STATUS_OK",
    "STATUS_UNSET",
    "Span",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "export_metrics_jsonl",
    "export_spans_jsonl",
    "format_metric_dicts",
    "format_span_dicts",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "read_jsonl",
    "scoped",
    "set_registry",
    "set_tracer",
    "snapshot_to_provenance",
    "text_dump",
]
