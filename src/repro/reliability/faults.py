"""Deterministic instrument-fault injection.

The paper's conclusion leaves open "how these systems can be automatically
and reliably adapted to perturbations or changes in parameters within the
life cycle of a production".  The simulators deliberately model a *static*
instrument; real spectrometers drop scans, saturate their detectors, grow
dead channels and jump their baselines.  :class:`FaultInjector` wraps any
spectrum source and injects exactly those fault classes, seeded and fully
logged, so recovery machinery (retry policies, the closed loop's actuator
hold, checkpointing) can be exercised in tests and benchmarks instead of
waiting for hardware to misbehave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

__all__ = ["AcquisitionError", "FaultEvent", "FaultConfig", "FaultInjector"]

# Methods a spectrum source may expose, in resolution order.
_SOURCE_METHODS = ("acquire", "simulate", "measure")


class AcquisitionError(RuntimeError):
    """A scan was lost at the instrument (comms timeout, vacuum glitch, ...)."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-mortem analysis of a run."""

    scan: int
    kind: str
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultConfig:
    """Per-scan fault probabilities plus severity knobs.

    Probabilities are independent per scan and per fault class; several
    faults can hit the same scan.  ``dropped_scan`` aborts the acquisition
    with :class:`AcquisitionError` before any data is produced.
    """

    dropped_scan: float = 0.0
    saturation: float = 0.0
    dead_channels: float = 0.0
    spike: float = 0.0
    baseline_jump: float = 0.0
    # Severity knobs (all relative to the scan's own max intensity).
    saturation_level: float = 0.6
    dead_channel_count: int = 8
    dead_channel_value: float = float("nan")
    spike_count: int = 3
    spike_scale: float = 5.0
    baseline_jump_scale: float = 0.4

    def __post_init__(self):
        for label in ("dropped_scan", "saturation", "dead_channels",
                      "spike", "baseline_jump"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be a probability, got {value}")
        if not 0.0 < self.saturation_level <= 1.0:
            raise ValueError("saturation_level must be in (0, 1]")
        if self.dead_channel_count < 1:
            raise ValueError("dead_channel_count must be >= 1")
        if self.spike_count < 1:
            raise ValueError("spike_count must be >= 1")
        if self.spike_scale <= 0 or self.baseline_jump_scale <= 0:
            raise ValueError("spike_scale and baseline_jump_scale must be positive")

    @classmethod
    def all_faults(cls, probability: float, **overrides) -> "FaultConfig":
        """Every fault class active at the same per-scan probability."""
        return cls(
            dropped_scan=probability,
            saturation=probability,
            dead_channels=probability,
            spike=probability,
            baseline_jump=probability,
            **overrides,
        )


class FaultInjector:
    """Wraps a spectrum source and corrupts its output deterministically.

    ``source`` may be a :class:`~repro.ms.simulator.MassSpectrometerSimulator`
    (``simulate``), a :class:`~repro.nmr.acquisition.VirtualNMRSpectrometer`
    (``acquire``), a :class:`~repro.ms.instrument.VirtualMassSpectrometer`
    (``measure``), or any callable returning a spectrum object (anything
    with an ``intensities`` array) or a raw array.  The injector exposes
    :meth:`acquire` plus an alias named after the wrapped method, so it is
    a drop-in replacement for the source in every acquisition path.
    """

    def __init__(self, source, config: FaultConfig, seed: int = 0):
        self.source = source
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.events: List[FaultEvent] = []
        self._scan = 0
        self._acquire_fn, wrapped_name = self._resolve(source)
        # Alias the wrapped method name (e.g. injector.measure for a rig's
        # instrument) so existing call sites need no changes.
        if wrapped_name is not None and wrapped_name != "acquire":
            setattr(self, wrapped_name, self.acquire)

    @staticmethod
    def _resolve(source) -> tuple:
        for name in _SOURCE_METHODS:
            method = getattr(source, name, None)
            if callable(method):
                return method, name
        if callable(source):
            return source, None
        raise TypeError(
            f"source must expose one of {_SOURCE_METHODS} or be callable, "
            f"got {type(source).__name__}"
        )

    # -- bookkeeping ---------------------------------------------------------

    @property
    def scans(self) -> int:
        """Scans attempted so far (including dropped ones)."""
        return self._scan

    @property
    def fault_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def _record(self, kind: str, **detail) -> None:
        self.events.append(FaultEvent(self._scan, kind, dict(detail)))

    # -- acquisition ---------------------------------------------------------

    def acquire(self, *args, **kwargs):
        """Acquire one scan through the wrapped source, possibly faulty.

        Raises :class:`AcquisitionError` on a dropped scan; other faults
        corrupt the returned spectrum in place.
        """
        self._scan += 1
        config, rng = self.config, self._rng
        if rng.random() < config.dropped_scan:
            self._record("dropped_scan")
            raise AcquisitionError(f"scan {self._scan} dropped by instrument")
        result = self._acquire_fn(*args, **kwargs)
        data = self._corrupt(self._intensities_of(result))
        return self._with_intensities(result, data)

    __call__ = acquire

    @staticmethod
    def _intensities_of(result) -> np.ndarray:
        if hasattr(result, "intensities"):
            return np.asarray(result.intensities, dtype=np.float64)
        if isinstance(result, tuple):
            # e.g. a rig-style (spectrum, label) pair: corrupt the spectrum.
            return np.asarray(result[0].intensities, dtype=np.float64)
        return np.asarray(result, dtype=np.float64)

    @staticmethod
    def _with_intensities(result, data: np.ndarray):
        if hasattr(result, "intensities"):
            result.intensities = data
            return result
        if isinstance(result, tuple):
            result[0].intensities = data
            return result
        return data

    def _corrupt(self, data: np.ndarray) -> np.ndarray:
        config, rng = self.config, self._rng
        data = np.array(data, dtype=np.float64, copy=True)
        scale = float(np.max(np.abs(data))) if data.size else 0.0
        scale = scale if scale > 0 else 1.0
        if rng.random() < config.saturation:
            level = config.saturation_level * scale
            clipped = int(np.sum(data > level))
            data = np.minimum(data, level)
            self._record("saturation", level=level, clipped_channels=clipped)
        if rng.random() < config.dead_channels:
            count = min(config.dead_channel_count, data.size)
            channels = rng.choice(data.size, size=count, replace=False)
            data[channels] = config.dead_channel_value
            self._record("dead_channels", channels=count)
        if rng.random() < config.spike:
            count = min(config.spike_count, data.size)
            positions = rng.choice(data.size, size=count, replace=False)
            heights = config.spike_scale * scale * rng.uniform(0.5, 1.5, size=count)
            data[positions] += heights
            self._record("spike", spikes=count, max_height=float(heights.max()))
        if rng.random() < config.baseline_jump:
            start = int(rng.integers(0, max(data.size - 1, 1)))
            jump = config.baseline_jump_scale * scale * rng.uniform(0.5, 1.5)
            data[start:] += jump
            self._record("baseline_jump", start=start, jump=float(jump))
        return data
