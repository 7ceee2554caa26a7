"""Guarded online recalibration: shadow → gate → promote, or reject/rollback.

The paper leaves automatic in-lifecycle re-adaptation as an open problem;
the failure mode that makes it hard is not *training* the replacement
model but *trusting* it.  A recalibration triggered by a drift alarm is
trained on whatever the drifted instrument currently emits — if that data
is poisoned (a dying detector producing NaNs, a mis-run reference
measurement) the "fresh" model can be strictly worse than the stale one,
and an unguarded hot-swap turns a drift incident into an outage.

:class:`AdaptationController` therefore never serves a candidate model
directly.  The sequence is:

1. **Trigger** — :meth:`observe` consumes
   :class:`~repro.core.lifecycle.DriftStatus` from the drift monitor; a
   drift alarm invokes the caller-supplied ``recalibrate`` hook to build
   a candidate model.
2. **Shadow** — the current primary keeps serving while the service's
   shadow tap mirrors every served request onto the candidate.  Candidate
   outputs are compared against the served answers (delta histogram,
   finiteness counts) and *never* returned to any caller.
3. **Gate** — after ``min_shadow_requests`` mirrored requests, the
   :class:`PromotionGate` checks the candidate's output finiteness over
   the shadow window and its MAE on a held-out labelled reference set
   against the primary's.  Fail → the candidate is discarded and
   journaled as rejected; the primary was never disturbed.
4. **Promote** — pass → the pre-promotion primary is already persisted as
   a ``<name>-rollback`` checkpoint (written at shadow start, *before*
   anything could go wrong), the candidate is checkpointed under
   ``<name>`` and hot-swapped in.
5. **Watch / rollback** — for a post-promotion watch window, a renewed
   drift alarm rolls back: the ``<name>-rollback`` checkpoint is loaded
   through the verified envelope path and swapped back in.  Checkpoint
   round-trips preserve float64 weights exactly, so the restored primary
   is byte-identical to the pre-promotion one.

Every transition is journaled through
:class:`~repro.storage.promotion.PromotionJournal` before it takes
effect, so a crash mid-transition leaves a record of intent, and the
full history (who served when, what was rejected and why) survives the
process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.observability.runtime import get_registry, get_tracer
from repro.reliability.checkpoint import CheckpointManager
from repro.serving.batching import batch_analyzer_from_model
from repro.serving.service import AnalysisService
from repro.storage.promotion import PromotionJournal

__all__ = [
    "AdaptationController",
    "GateDecision",
    "PromotionGate",
    "ShadowStats",
]

# Shadow-delta histogram buckets: |candidate - served| mean per request,
# in concentration units (served outputs are ~[0, 1] fractions).
_DELTA_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

# Hardest a drift severity may shorten the retry cooldown: at most 4x
# faster than the base, even for inf severity (zero-baseline statuses).
_MAX_COOLDOWN_SCALE = 4.0


@dataclass
class ShadowStats:
    """What the candidate did over the mirrored-request window."""

    requests: int = 0
    finite: int = 0
    errors: int = 0
    delta_sum: float = 0.0
    delta_count: int = 0

    @property
    def finite_fraction(self) -> float:
        return self.finite / self.requests if self.requests else 0.0

    @property
    def mean_delta(self) -> Optional[float]:
        if self.delta_count == 0:
            return None
        return self.delta_sum / self.delta_count

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "finite": self.finite,
            "errors": self.errors,
            "finite_fraction": self.finite_fraction,
            "mean_delta": self.mean_delta,
        }


@dataclass(frozen=True)
class GateDecision:
    """One gate evaluation; ``reasons`` names every failed check."""

    promote: bool
    reasons: Tuple[str, ...]
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PromotionGate:
    """The promotion criteria, all of which must hold.

    * the candidate produced a finite output for at least
      ``min_finite_fraction`` of ``min_shadow_requests`` mirrored
      requests (default: *every* one — a model that NaNs once under real
      traffic has no business serving it);
    * its MAE on the labelled reference set is within
      ``max_reference_mae_ratio`` of the primary's (it may be slightly
      worse on *nominal* data if it was trained for drifted data, hence
      the ratio is > 1);
    * optionally, its mean per-request deviation from the served answers
      stays under ``max_shadow_delta`` (a sanity bound against a
      candidate that is finite but wild);
    * optionally, its conformal interval coverage on the reference set
      reaches ``min_interval_coverage`` (a candidate whose uncertainty
      intervals stop covering the truth would turn the serving
      abstention gate into a liar, however good its point MAE looks).
    """

    min_shadow_requests: int = 25
    min_finite_fraction: float = 1.0
    max_reference_mae_ratio: float = 1.25
    max_shadow_delta: Optional[float] = None
    min_interval_coverage: Optional[float] = None

    def __post_init__(self):
        if self.min_shadow_requests < 1:
            raise ValueError("min_shadow_requests must be >= 1")
        if not 0.0 < self.min_finite_fraction <= 1.0:
            raise ValueError("min_finite_fraction must be in (0, 1]")
        if self.max_reference_mae_ratio <= 0:
            raise ValueError("max_reference_mae_ratio must be positive")
        if self.min_interval_coverage is not None and not (
            0.0 < self.min_interval_coverage <= 1.0
        ):
            raise ValueError("min_interval_coverage must be in (0, 1]")

    def decide(
        self,
        stats: ShadowStats,
        candidate_mae: float,
        primary_mae: float,
        interval_coverage: Optional[float] = None,
    ) -> GateDecision:
        reasons = []
        if stats.requests < self.min_shadow_requests:
            reasons.append("insufficient_shadow_requests")
        if stats.finite_fraction < self.min_finite_fraction:
            reasons.append("nonfinite_shadow_outputs")
        if not np.isfinite(candidate_mae):
            reasons.append("nonfinite_reference_mae")
        elif candidate_mae > self.max_reference_mae_ratio * primary_mae:
            reasons.append("reference_mae_regression")
        if self.max_shadow_delta is not None:
            mean_delta = stats.mean_delta
            if mean_delta is None or mean_delta > self.max_shadow_delta:
                reasons.append("shadow_delta_excessive")
        if self.min_interval_coverage is not None:
            if interval_coverage is None:
                reasons.append("interval_coverage_unavailable")
            elif not np.isfinite(interval_coverage) or (
                interval_coverage < self.min_interval_coverage
            ):
                reasons.append("interval_coverage_low")
        return GateDecision(
            promote=not reasons,
            reasons=tuple(reasons),
            detail={
                **stats.as_dict(),
                "candidate_reference_mae": float(candidate_mae),
                "primary_reference_mae": float(primary_mae),
                "interval_coverage": (
                    None if interval_coverage is None
                    else float(interval_coverage)
                ),
            },
        )


class AdaptationController:
    """Drives the shadow → gate → promote/rollback state machine.

    ``service`` is a running :class:`AnalysisService` currently serving
    ``model``; ``recalibrate`` builds a candidate model from a drift
    status (typically a fine-tune or a fresh toolchain run — the
    controller does not care how).  ``reference_x``/``reference_y`` is a
    small held-out labelled set on *nominal* data used by the gate.
    States: ``nominal`` → ``shadowing`` → (``watch`` | ``nominal``) →
    ``nominal``.  All methods are thread-safe; the shadow tap runs on the
    service's worker threads.
    """

    def __init__(
        self,
        service: AnalysisService,
        model,
        checkpoints: CheckpointManager,
        journal: PromotionJournal,
        reference_x: np.ndarray,
        reference_y: np.ndarray,
        name: str = "serving",
        gate: Optional[PromotionGate] = None,
        recalibrate: Optional[Callable] = None,
        cooldown_observations: int = 10,
        watch_observations: int = 30,
        coverage_probe: Optional[Callable] = None,
        registry=None,
        tracer=None,
    ):
        if len(reference_x) != len(reference_y) or len(reference_x) == 0:
            raise ValueError("reference set must be non-empty and aligned")
        self.service = service
        self.model = model
        self.checkpoints = checkpoints
        self.journal = journal
        self.reference_x = np.asarray(reference_x, dtype=np.float64)
        self.reference_y = np.asarray(reference_y, dtype=np.float64)
        self.name = str(name)
        self.gate = gate if gate is not None else PromotionGate()
        self.recalibrate = recalibrate
        self.cooldown_observations = int(cooldown_observations)
        self.watch_observations = int(watch_observations)
        # Optional uncertainty probe: coverage_probe(candidate_model) ->
        # conformal interval coverage on held-out data, consumed by the
        # gate's min_interval_coverage check.  A probe that raises reads
        # as "coverage unavailable" — the gate then refuses if it
        # requires coverage, which is the safe direction.
        self.coverage_probe = coverage_probe
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.state = "nominal"
        self.candidate = None
        self.shadow_stats = ShadowStats()
        self.last_decision: Optional[GateDecision] = None
        self._cooldown = 0
        self._watch_remaining = 0
        self._lock = threading.RLock()
        self._m_shadow = self.registry.counter(
            "adaptation_shadow_requests_total",
            "mirrored requests by candidate outcome",
        )
        self._m_delta = self.registry.histogram(
            "adaptation_shadow_delta",
            "mean |candidate - served| per mirrored request",
            buckets=_DELTA_BUCKETS,
        )
        self._m_promotions = self.registry.counter(
            "adaptation_promotions_total", "candidates promoted to serving"
        )
        self._m_rejections = self.registry.counter(
            "adaptation_rejections_total", "candidates refused by the gate"
        )
        self._m_rollbacks = self.registry.counter(
            "adaptation_rollbacks_total",
            "promotions reverted to the rollback checkpoint",
        )
        self._m_state = self.registry.gauge(
            "adaptation_state",
            "controller state (0 nominal, 1 shadowing, 2 watch)",
        )
        self._set_state("nominal")

    # -- drift-signal entry point -------------------------------------------

    def observe(self, status) -> str:
        """Feed one drift status; returns the action taken.

        Actions: ``"none"``, ``"cooldown"``, ``"shadow_started"``,
        ``"recalibrate_failed"``, ``"rolled_back"``, ``"watch_cleared"``.
        Promotion/rejection decisions do not happen here — they fire from
        the shadow tap once the mirrored-request window fills.
        """
        with self._lock:
            if self._cooldown > 0:
                self._cooldown -= 1
                return "cooldown"
            if self.state == "watch":
                if status.drifted:
                    self.rollback("post_promotion_drift", status=status)
                    return "rolled_back"
                self._watch_remaining -= 1
                if self._watch_remaining <= 0:
                    self._set_state("nominal")
                    return "watch_cleared"
                return "none"
            if self.state != "nominal" or not status.drifted:
                return "none"
            if self.recalibrate is None:
                return "none"
            try:
                candidate = self.recalibrate(status)
            except Exception as error:
                # A recalibration that cannot even produce a model is not
                # a gate matter; note it and back off before retrying.
                self.journal.append(
                    "rejected",
                    name=self.name,
                    stage="recalibrate",
                    error=f"{type(error).__name__}: {error}",
                    drift=_drift_record(status),
                )
                self._m_rejections.inc(stage="recalibrate")
                self._cooldown = self._cooldown_after(status)
                return "recalibrate_failed"
            self.start_shadow(candidate, status=status)
            return "shadow_started"

    # -- shadow lifecycle ----------------------------------------------------

    def start_shadow(self, candidate, status=None) -> None:
        """Persist the rollback point, then start mirroring traffic.

        Order matters: the pre-promotion primary is checkpointed as
        ``<name>-rollback`` *before* the candidate touches anything, so a
        later rollback restores a verified artifact regardless of what
        the candidate or a crash does in between.
        """
        with self._lock:
            if self.state != "nominal":
                raise RuntimeError(
                    f"cannot start shadow from state {self.state!r}"
                )
            span = self.tracer.start_span(
                "adaptation.shadow_start", attributes={"name": self.name}
            )
            self.checkpoints.save(
                f"{self.name}-rollback",
                self.model,
                state={"role": "rollback_point", "for": self.name},
            )
            self.candidate = candidate
            self.shadow_stats = ShadowStats()
            self.last_decision = None
            self.journal.append(
                "shadow_started",
                name=self.name,
                gate={
                    "min_shadow_requests": self.gate.min_shadow_requests,
                    "min_finite_fraction": self.gate.min_finite_fraction,
                    "max_reference_mae_ratio": self.gate.max_reference_mae_ratio,
                    "min_interval_coverage": self.gate.min_interval_coverage,
                },
                drift=_drift_record(status),
            )
            self._set_state("shadowing")
            self.service.set_shadow_tap(self._shadow)
            span.end()

    def _shadow(self, data, served_value) -> None:
        """The service tap: mirror one served request onto the candidate."""
        with self._lock:
            if self.state != "shadowing":
                return
            stats = self.shadow_stats
            stats.requests += 1
            try:
                row = np.asarray(data, dtype=np.float64)[np.newaxis, ...]
                candidate_value = np.asarray(
                    self.candidate.predict(row)[0], dtype=np.float64
                )
            except Exception:
                stats.errors += 1
                self._m_shadow.inc(outcome="error")
            else:
                if np.isfinite(candidate_value).all():
                    stats.finite += 1
                    self._m_shadow.inc(outcome="finite")
                    served = np.asarray(served_value, dtype=np.float64)
                    if served.shape == candidate_value.shape:
                        delta = float(
                            np.mean(np.abs(candidate_value - served))
                        )
                        stats.delta_sum += delta
                        stats.delta_count += 1
                        self._m_delta.observe(delta)
                else:
                    self._m_shadow.inc(outcome="nonfinite")
            if stats.requests >= self.gate.min_shadow_requests:
                self._decide()

    def _decide(self) -> None:
        """Gate the candidate once the shadow window has filled."""
        span = self.tracer.start_span(
            "adaptation.decide", attributes={"name": self.name}
        )
        candidate_mae = self._reference_mae(self.candidate)
        primary_mae = self._reference_mae(self.model)
        coverage = None
        if self.coverage_probe is not None:
            try:
                coverage = float(self.coverage_probe(self.candidate))
            except Exception:
                coverage = None
        decision = self.gate.decide(
            self.shadow_stats, candidate_mae, primary_mae,
            interval_coverage=coverage,
        )
        self.last_decision = decision
        span.set_attribute("promote", decision.promote)
        if decision.promote:
            self.promote(decision)
        else:
            self.reject(decision)
        span.end(status=None if decision.promote else "error: rejected")

    def _reference_mae(self, model) -> float:
        try:
            predictions = np.asarray(
                model.predict(self.reference_x), dtype=np.float64
            )
        except Exception:
            return float("inf")
        if predictions.shape != self.reference_y.shape:
            return float("inf")
        error = np.abs(predictions - self.reference_y)
        if not np.isfinite(error).all():
            return float("inf")
        return float(np.mean(error))

    # -- transitions ---------------------------------------------------------

    def promote(self, decision: GateDecision) -> None:
        """The candidate becomes the primary — journal, persist, swap."""
        with self._lock:
            span = self.tracer.start_span(
                "adaptation.promote", attributes={"name": self.name}
            )
            self.service.set_shadow_tap(None)
            self.journal.append(
                "promoted", name=self.name, gate_detail=decision.detail
            )
            self.checkpoints.save(
                self.name,
                self.candidate,
                state={"role": "promoted", "gate": decision.detail},
            )
            self.model = self.candidate
            self.candidate = None
            analyzer, batch = self._analyzers(self.model)
            self.service.swap_analyzer(analyzer, batch)
            self._m_promotions.inc()
            self._watch_remaining = self.watch_observations
            self._set_state("watch")
            span.end()

    def reject(self, decision: GateDecision) -> None:
        """Discard the candidate; the primary was never disturbed."""
        with self._lock:
            self.service.set_shadow_tap(None)
            self.journal.append(
                "rejected",
                name=self.name,
                stage="gate",
                reasons=list(decision.reasons),
                gate_detail=decision.detail,
            )
            self._m_rejections.inc(stage="gate")
            self.candidate = None
            self._cooldown = self.cooldown_observations
            self._set_state("nominal")

    def rollback(self, reason: str, status=None) -> None:
        """Restore the pre-promotion primary from its verified checkpoint.

        The checkpoint envelope preserves float64 weights bit-exactly, so
        the restored model's predictions are byte-identical to the
        pre-promotion primary's.
        """
        with self._lock:
            span = self.tracer.start_span(
                "adaptation.rollback",
                attributes={"name": self.name, "reason": reason},
            )
            self.service.set_shadow_tap(None)
            restored = self.checkpoints.load(f"{self.name}-rollback")
            self.journal.append(
                "rolled_back",
                name=self.name,
                reason=reason,
                generation=restored.generation,
                fell_back=restored.fell_back,
                drift=_drift_record(status),
            )
            self.model = restored.model
            self.candidate = None
            self.checkpoints.save(
                self.name,
                self.model,
                state={"role": "rolled_back", "reason": reason},
            )
            analyzer, batch = self._analyzers(self.model)
            self.service.swap_analyzer(analyzer, batch)
            self._m_rollbacks.inc()
            self._cooldown = self._cooldown_after(status)
            self._watch_remaining = 0
            self._set_state("nominal")
            span.end()

    # -- internals -----------------------------------------------------------

    def _cooldown_after(self, status) -> int:
        """Severity-scaled backoff, hardened against ``inf``/NaN severity.

        :attr:`DriftStatus.severity` is documented to return ``inf``
        against a zero baseline, and duck-typed statuses can hand us NaN
        — naive arithmetic (``base / severity``, ``int(...)``) would
        raise or produce a zero/negative cooldown and spin the
        controller into retrying every observation.  The rules:

        * no status / no usable severity / NaN → the full base cooldown
          (unknown severity is *not* a reason to retry faster);
        * severity <= 1 (nominal or sub-nominal) → the full base cooldown;
        * severe drift shortens the backoff — the more anomalous the
          signal, the sooner a retry is warranted — but the scale is
          clamped (``inf`` included) so the result is always a finite
          int of at least 1.
        """
        base = self.cooldown_observations
        severity = getattr(status, "severity", None)
        if severity is None:
            return base
        try:
            severity = float(severity)
        except (TypeError, ValueError):
            return base
        if np.isnan(severity) or severity <= 1.0:
            return base
        scale = min(severity, _MAX_COOLDOWN_SCALE)
        return max(1, int(np.ceil(base / scale)))

    def _analyzers(self, model):
        """(single, batched-or-None) analyzers over ``model``.

        The batched one is frozen to the dtype the service serves now,
        so promote and rollback keep a frozen service on its engine.
        """

        def analyzer(intensities):
            batch = np.asarray(intensities, dtype=np.float64)[np.newaxis, ...]
            return model.predict(batch)[0]

        batched = None
        if self.service.batching is not None:
            batched = batch_analyzer_from_model(
                model,
                frozen=getattr(self.service.batch_analyzer, "frozen_dtype",
                               None),
            )
        return analyzer, batched

    def _set_state(self, state: str) -> None:
        self.state = state
        self._m_state.labels(name=self.name).set(
            {"nominal": 0, "shadowing": 1, "watch": 2}[state]
        )

    def snapshot(self) -> dict:
        """Controller state for stats endpoints and tests."""
        with self._lock:
            return {
                "state": self.state,
                "cooldown": self._cooldown,
                "watch_remaining": self._watch_remaining,
                "shadow": self.shadow_stats.as_dict(),
                "last_decision": (
                    None
                    if self.last_decision is None
                    else {
                        "promote": self.last_decision.promote,
                        "reasons": list(self.last_decision.reasons),
                    }
                ),
            }


def _drift_record(status) -> Optional[dict]:
    """A journal-safe encoding of a drift status (or None)."""
    if status is None:
        return None
    if hasattr(status, "to_record"):
        return status.to_record()
    return {"drifted": bool(getattr(status, "drifted", False))}
