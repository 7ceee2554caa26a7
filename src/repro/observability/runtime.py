"""The process-global telemetry runtime: one registry, one tracer.

Instrumented modules (training loop, serving frontend, artifact
cache, journal, retry policy) default to the instruments returned here,
so a plain ``python examples/hardened_serving.py`` collects telemetry
with zero configuration — and every instrumented constructor also takes
an explicit ``registry=``/``tracer=`` so tests and benchmarks can isolate
or disable collection per instance.

``disable()``/``enable()`` flip both global halves at once;
:func:`scoped` swaps the globals for the duration of a ``with`` block
(tests that assert on exact counts use it to see only their own traffic).
Layering: imports only :mod:`repro.observability.metrics`/``tracing``,
which are stdlib-only leaves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import Tracer

__all__ = [
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "counter",
    "gauge",
    "histogram",
    "enable",
    "disable",
    "scoped",
]

_lock = threading.Lock()
_registry = MetricsRegistry()
_tracer = Tracer()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (default-on)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _registry
    with _lock:
        previous, _registry = _registry, registry
    return previous


def get_tracer() -> Tracer:
    """The process-global tracer (default-on)."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _tracer
    with _lock:
        previous, _tracer = _tracer, tracer
    return previous


def counter(name: str, help: str = "") -> Counter:
    return _registry.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _registry.gauge(name, help)


def histogram(name: str, help: str = "", buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
    return _registry.histogram(name, help, buckets)


def enable() -> None:
    """Turn global metric writes and span creation back on."""
    _registry.enable()
    _tracer.enable()


def disable() -> None:
    """Reduce every global instrument write to a single-branch no-op."""
    _registry.disable()
    _tracer.disable()


@contextmanager
def scoped(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
):
    """Temporarily swap the global registry and/or tracer.

    Yields ``(registry, tracer)`` — fresh default instances when not
    given — and restores the previous globals on exit, even on error.
    """
    new_registry = registry if registry is not None else MetricsRegistry()
    new_tracer = tracer if tracer is not None else Tracer()
    old_registry = set_registry(new_registry)
    old_tracer = set_tracer(new_tracer)
    try:
        yield new_registry, new_tracer
    finally:
        set_registry(old_registry)
        set_tracer(old_tracer)
