"""Thread-safe metrics: labeled counters, gauges and fixed-bucket histograms.

The paper's Tool 4 is an *automated* train/evaluate flow; the ROADMAP's
north star is a production service.  Both need the same primitive: cheap,
always-on measurement of where time and errors actually accrue.  This
module is the metrics half of :mod:`repro.observability` — a
:class:`MetricsRegistry` handing out three instrument kinds:

* :class:`Counter` — monotonically increasing totals (requests served,
  retries spent, cache entries quarantined);
* :class:`Gauge` — point-in-time levels (queue depth, in-flight requests,
  current training loss);
* :class:`Histogram` — fixed-bucket latency/size distributions with
  percentile queries (``p50``/``p95``/``p99``) answered from bucket
  counts, never from stored samples.

Every instrument is labeled: one ``Counter`` object is a *family* and
``inc(outcome="queue_full")`` addresses one series within it.  All
operations are guarded by a per-instrument lock, so worker threads can
increment concurrently without losing updates.  Time comes from the
registry's injectable ``clock`` so tests are deterministic.

Hot paths that hit the same series repeatedly should bind it once with
``family.labels(service="x")`` — the returned child skips the per-call
kwargs allocation and label-key sort, which is most of a labeled write's
cost.  The bound child holds the one write path per kind; a family's
labeled write binds a child and calls it.

Cost model: a disabled registry short-circuits every bound write at a
single attribute check (no lock, no allocation), which is what keeps
default-on instrumentation inside the serving layer's < 5% overhead
budget.
Layering: this module imports only the standard library.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Upper bounds in seconds, spanning sub-millisecond analyzer calls to
# multi-second training epochs; the final +inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _key_to_labels(key: _LabelKey) -> Dict[str, str]:
    return dict(key)


class _Instrument:
    """Common shell: name, help text, registry back-reference, lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def series_labels(self) -> List[Dict[str, str]]:
        """The label sets this family has recorded, insertion-ordered."""
        with self._lock:
            return [_key_to_labels(key) for key in self._series_keys()]

    def _series_keys(self) -> Iterable[_LabelKey]:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class _BoundCounter:
    """One counter series with its label key precomputed (see ``labels()``)."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Counter", key: _LabelKey):
        self._family = family
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        family = self._family
        if not family._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with family._lock:
            family._values[self._key] = (
                family._values.get(self._key, 0.0) + float(amount)
            )

    def value(self) -> float:
        with self._family._lock:
            return self._family._values.get(self._key, 0.0)


class _BoundGauge:
    """One gauge series with its label key precomputed."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Gauge", key: _LabelKey):
        self._family = family
        self._key = key

    def set(self, value: float) -> None:
        family = self._family
        if not family._registry.enabled:
            return
        with family._lock:
            family._values[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        family = self._family
        if not family._registry.enabled:
            return
        with family._lock:
            family._values[self._key] = (
                family._values.get(self._key, 0.0) + float(amount)
            )

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._family._lock:
            return self._family._values.get(self._key, 0.0)


class _BoundHistogram:
    """One histogram series with its label key precomputed."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Histogram", key: _LabelKey):
        self._family = family
        self._key = key

    def observe(self, value: float) -> None:
        family = self._family
        if not family._registry.enabled:
            return
        value = float(value)
        index = bisect.bisect_left(family.buckets, value)
        with family._lock:
            series = family._series.get(self._key)
            if series is None:
                series = family._series[self._key] = _HistogramSeries(
                    len(family.buckets)
                )
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def time(self):
        return _BoundHistogramTimer(self)


class Counter(_Instrument):
    """A labeled, monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: Dict[_LabelKey, float] = {}

    def labels(self, **labels) -> _BoundCounter:
        """Bind one series for repeated hot-path increments."""
        return _BoundCounter(self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label series."""
        with self._lock:
            return float(sum(self._values.values()))

    def _series_keys(self):
        return list(self._values)

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [
                {"labels": _key_to_labels(key), "value": value}
                for key, value in self._values.items()
            ]


class Gauge(_Instrument):
    """A labeled level that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: Dict[_LabelKey, float] = {}

    def labels(self, **labels) -> _BoundGauge:
        """Bind one series for repeated hot-path updates."""
        return _BoundGauge(self, _label_key(labels))

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _series_keys(self):
        return list(self._values)

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [
                {"labels": _key_to_labels(key), "value": value}
                for key, value in self._values.items()
            ]


class _HistogramSeries:
    """Bucket counts plus count/sum/min/max for one label set."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # final slot: overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Instrument):
    """Fixed upper-bound buckets with percentile queries.

    ``observe(v)`` lands ``v`` in the first bucket whose bound is ``>= v``
    (values above the last bound go to an implicit overflow bucket).
    :meth:`percentile` answers from cumulative bucket counts by linear
    interpolation inside the covering bucket, clamped to the observed
    ``[min, max]`` — so a series whose samples all share one value reports
    that exact value at every percentile, and a single-sample series
    reports the sample itself.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.buckets = bounds
        self._series: Dict[_LabelKey, _HistogramSeries] = {}

    def labels(self, **labels) -> _BoundHistogram:
        """Bind one series for repeated hot-path observations."""
        return _BoundHistogram(self, _label_key(labels))

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)

    def time(self, **labels):
        """Context manager: observe the elapsed registry-clock time."""
        return self.labels(**labels).time()

    # -- queries -----------------------------------------------------------

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series is not None else 0.0

    def mean(self, **labels) -> Optional[float]:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return None
            return series.sum / series.count

    def percentile(self, p: float, **labels) -> Optional[float]:
        """The p-th percentile estimate (p in [0, 100]); None when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return None
            if series.count == 1:
                return series.sum  # the single sample, exactly
            rank = min(max(math.ceil(p / 100.0 * series.count), 1),
                       series.count)
            cumulative = 0
            for index, bucket_count in enumerate(series.bucket_counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    lower = (
                        self.buckets[index - 1] if index > 0 else series.min
                    )
                    upper = (
                        self.buckets[index]
                        if index < len(self.buckets)
                        else series.max
                    )
                    # No sample can lie outside the observed range, so
                    # tighten the interpolation ends with it.
                    lower = max(lower, series.min)
                    upper = min(upper, series.max)
                    position = (rank - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * position
                    return min(max(estimate, series.min), series.max)
                cumulative += bucket_count
            return series.max  # unreachable; defensive

    def percentiles(self, ps=(50.0, 95.0, 99.0), **labels) -> Dict[str, Optional[float]]:
        return {f"p{p:g}": self.percentile(p, **labels) for p in ps}

    def _series_keys(self):
        return list(self._series)

    def snapshot(self) -> List[dict]:
        with self._lock:
            out = []
            for key, series in self._series.items():
                out.append(
                    {
                        "labels": _key_to_labels(key),
                        "count": series.count,
                        "sum": series.sum,
                        "min": series.min if series.count else None,
                        "max": series.max if series.count else None,
                        "bucket_bounds": list(self.buckets),
                        "bucket_counts": list(series.bucket_counts),
                    }
                )
        for entry in out:
            labels = entry["labels"]
            entry.update(self.percentiles(**labels))
        return out


class _BoundHistogramTimer:
    __slots__ = ("_bound", "_start")

    def __init__(self, bound: _BoundHistogram):
        self._bound = bound

    def __enter__(self):
        self._start = self._bound._family._registry.clock()
        return self

    def __exit__(self, *exc_info):
        self._bound.observe(
            self._bound._family._registry.clock() - self._start
        )


class MetricsRegistry:
    """Named instruments behind one lock; the process-global default lives
    in :mod:`repro.observability.runtime`.

    ``registry.counter(name)`` registers on first use and returns the same
    family on every later call; asking for an existing name as a different
    kind raises.  ``enabled=False`` (or :meth:`disable`) turns every write
    on every instrument of this registry into a single-branch no-op —
    reads still work, reporting whatever was recorded while enabled.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.enabled = bool(enabled)
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every instrument (tests; not for production use)."""
        with self._lock:
            self._metrics = {}

    # -- instrument factories ----------------------------------------------

    def _get(self, name: str, kind: type, factory) -> _Instrument:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, not a "
                        f"{kind.kind}"
                    )
                return existing
            instrument = factory()
            self._metrics[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help, self))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help, self))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, help, self, buckets)
        )

    # -- introspection -----------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """A JSON-serializable view of every series of every instrument."""
        with self._lock:
            instruments = list(self._metrics.values())
        return {
            "enabled": self.enabled,
            "metrics": [
                {
                    "name": instrument.name,
                    "type": instrument.kind,
                    "help": instrument.help,
                    "series": instrument.snapshot(),
                }
                for instrument in sorted(instruments, key=lambda m: m.name)
            ],
        }
