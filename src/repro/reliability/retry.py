"""Retrying acquisition with exponential backoff and deterministic jitter.

A dropped scan should cost one re-acquisition, not the run.  The MS
toolchain and the NMR closed loop both acquire through
:func:`acquire_with_retry` / :meth:`RetryPolicy.call` so a transient
:class:`~repro.reliability.faults.AcquisitionError` is absorbed on the
spot.  The jitter is drawn from a seeded generator and the sleep function
is injectable, so retry behaviour is exactly reproducible in tests.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.observability.runtime import get_registry
from repro.reliability.faults import AcquisitionError

__all__ = [
    "RetryExhaustedError",
    "RetryPolicy",
    "acquire_with_retry",
    "finite_intensities",
]


class RetryExhaustedError(AcquisitionError):
    """All attempts failed; carries the last underlying error as __cause__."""


class RetryPolicy:
    """Bounded retries with capped exponential backoff and seeded jitter.

    Only :class:`~repro.reliability.faults.AcquisitionError` is retried;
    any other exception propagates at once.  The delay before retry ``n``
    is ``base_delay * backoff ** (n - 1)``, scaled by ``1 ± jitter`` and
    then capped at ``max_delay``.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.1,
        backoff: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.backoff = float(backoff)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.sleep = sleep
        self._rng = np.random.default_rng(seed)
        registry = registry if registry is not None else get_registry()
        self._m_attempts = registry.counter(
            "retry_attempts_total", "acquisition attempts made"
        )
        self._m_retries = registry.counter(
            "retry_retries_total", "attempts that were retries"
        )
        self._m_exhausted = registry.counter(
            "retry_exhausted_total", "calls abandoned after the last attempt"
        )
        self.total_attempts = 0
        self.total_retries = 0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0:
            return raw
        jittered = raw * (1.0 + self.jitter * float(self._rng.uniform(-1.0, 1.0)))
        return min(jittered, self.max_delay)

    def call(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under this policy.

        Raises :class:`RetryExhaustedError` once the attempts are used up.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            self.total_attempts += 1
            self._m_attempts.inc()
            try:
                return fn(*args, **kwargs)
            except AcquisitionError as error:
                last_error = error
                if attempt == self.max_attempts:
                    break
                self.total_retries += 1
                self._m_retries.inc()
                self.sleep(self.delay(attempt))
        self._m_exhausted.inc()
        raise RetryExhaustedError(
            f"{self.max_attempts} attempts failed; last: {last_error}"
        ) from last_error


def acquire_with_retry(
    source,
    *args,
    policy: Optional[RetryPolicy] = None,
    validate: Optional[Callable] = None,
    **kwargs,
):
    """Acquire one scan from ``source`` under a retry policy.

    ``source`` is resolved like :class:`~repro.reliability.faults.FaultInjector`
    sources (``acquire``/``simulate``/``measure`` method or a callable).
    ``validate``, if given, receives the acquisition result and must return
    truthy; an invalid scan (e.g. non-finite intensities) is treated as an
    :class:`AcquisitionError` and re-acquired.
    """
    from repro.reliability.faults import FaultInjector

    fn, _ = FaultInjector._resolve(source)
    policy = policy if policy is not None else RetryPolicy()

    def attempt():
        result = fn(*args, **kwargs)
        if validate is not None and not validate(result):
            raise AcquisitionError("scan failed validation")
        return result

    return policy.call(attempt)


def finite_intensities(result) -> bool:
    """Validator: every intensity in the scan is finite."""
    from repro.reliability.faults import FaultInjector

    data = FaultInjector._intensities_of(result)
    return bool(np.isfinite(data).all())
