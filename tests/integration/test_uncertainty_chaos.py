"""Chaos test: an OOD flood must be refused, never answered confidently.

A real (small) MC-dropout predictor serves through the abstention gate
under concurrent mixed traffic: in-distribution spectra from the
simulator the model was trained on, interleaved with a flood of
out-of-distribution noise spectra.  Dropout variance scales with
activation magnitude, so structurally alien inputs inflate the
calibrated interval past the policy bound while in-distribution rows
stay narrow.  The acceptance invariants:

* no noise spectrum ever resolves as ``Completed`` — every one is
  ``Abstained`` (or rejected by an earlier defence), so the service
  never emits a confident wrong answer;
* in-distribution traffic keeps being served through the same gate;
* exactly-once accounting holds under the flood:
  ``submitted == completed + Σ rejections + Σ abstentions``.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.ms.simulator import MassSpectrometerSimulator
from repro.serving import Abstained, AnalysisService, BatchingPolicy, Completed
from repro.uncertainty import (
    AbstentionPolicy,
    ConformalCalibrator,
    EnsembleSpec,
    MCDropoutPredictor,
    UncertaintyGate,
)

SPEC = EnsembleSpec(
    compounds=("H2", "N2"),
    axis=(1.0, 50.0, 0.5),
    n_train=192,
    epochs=3,
    hidden_units=(16,),
    n_members=2,
    batch_size=32,
    seed=3,
)
N_IN_DIST = 24
N_NOISE = 24


@pytest.fixture(scope="module")
def gated_rig():
    simulator = MassSpectrometerSimulator.from_spec(
        SPEC.axis, SPEC.characteristics
    )
    train_x, train_y = simulator.generate_dataset(
        SPEC.compounds, SPEC.n_train, np.random.default_rng(SPEC.seed)
    )
    model = nn.Sequential(
        [nn.Dense(16, activation="relu"), nn.Dropout(0.3), nn.Dense(2)]
    )
    model.build((SPEC.input_length(),), seed=SPEC.seed)
    model.compile(nn.Adam(SPEC.learning_rate), "mae")
    model.fit(
        train_x,
        train_y,
        epochs=SPEC.epochs,
        batch_size=SPEC.batch_size,
        seed=SPEC.seed,
        verbose=False,
    )
    predictor = MCDropoutPredictor(model, passes=20, seed=7)
    calibration_x, calibration_y = simulator.generate_dataset(
        SPEC.compounds, 96, np.random.default_rng(99)
    )
    calibrator = ConformalCalibrator(alpha=0.1)
    calibrator.calibrate(predictor.predict(calibration_x), calibration_y)
    widths = calibrator.width(predictor.predict(calibration_x))
    # The serve/abstain boundary is derived from calibration widths, not
    # hand-tuned: anything past 4x the in-distribution p95 is refused.
    policy = AbstentionPolicy(max_width=4.0 * float(np.percentile(widths, 95)))
    in_dist, _ = simulator.generate_dataset(
        SPEC.compounds, N_IN_DIST, np.random.default_rng(7)
    )
    noise_rng = np.random.default_rng(13)
    noise = noise_rng.random((N_NOISE, SPEC.input_length()))
    noise /= noise.max(axis=1, keepdims=True)
    return predictor, calibrator, policy, in_dist, noise


def _gate(rig):
    predictor, calibrator, policy, _, _ = rig
    return UncertaintyGate(predictor, calibrator, policy=policy)


class TestOODFlood:
    def test_flood_abstains_and_accounting_is_exactly_once(self, gated_rig):
        _, _, _, in_dist, noise = gated_rig
        service = AnalysisService(
            lambda data: np.zeros(len(SPEC.compounds)),
            workers=2,
            queue_size=128,
            default_deadline_s=10.0,
            expected_length=SPEC.input_length(),
            batching=BatchingPolicy(max_batch=8, max_wait_s=0.02),
            uncertainty=_gate(gated_rig),
        )
        outcomes = {"in_dist": [], "noise": []}
        lock = threading.Lock()

        def flood(kind, rows):
            pending = [(service.submit(row), row) for row in rows]
            resolved = [(p.result(timeout=30.0), row) for p, row in pending]
            with lock:
                outcomes[kind].extend(resolved)

        with service:
            threads = [
                threading.Thread(target=flood, args=("in_dist", in_dist)),
                threading.Thread(target=flood, args=("noise", noise)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            stats = service.stats()

        # Invariant 1: never a confident answer for an OOD spectrum.
        for result, _ in outcomes["noise"]:
            assert not isinstance(result, Completed), (
                "OOD spectrum served confidently: "
                f"{result!r}"
            )
        noise_abstained = [
            r for r, _ in outcomes["noise"] if isinstance(r, Abstained)
        ]
        assert noise_abstained, "flood produced no Abstained results"
        for result in noise_abstained:
            assert result.reason == "interval_too_wide"
            assert np.isfinite(result.value).all()
            lower, upper = result.interval
            assert (upper >= lower).all()

        # Invariant 2: the gate keeps vouching for in-distribution rows.
        served = [
            r for r, _ in outcomes["in_dist"] if isinstance(r, Completed)
        ]
        assert len(served) >= N_IN_DIST // 2

        # Invariant 3: exactly-once accounting under the flood.
        assert stats["submitted"] == N_IN_DIST + N_NOISE
        assert (
            stats["completed"]
            + stats["abstained"]
            + sum(stats["rejections"].values())
            == stats["submitted"]
        )
        # Every request terminated in exactly one result object.
        all_results = [r for rs in outcomes.values() for r, _ in rs]
        assert len(all_results) == N_IN_DIST + N_NOISE
        assert all(r is not None for r in all_results)

    def test_flood_raises_the_abstention_rate_signal(self, gated_rig):
        _, _, _, in_dist, noise = gated_rig
        service = AnalysisService(
            lambda data: np.zeros(len(SPEC.compounds)),
            workers=2,
            queue_size=128,
            default_deadline_s=10.0,
            expected_length=SPEC.input_length(),
            uncertainty=_gate(gated_rig),
        )
        with service:
            for row in in_dist[:6]:
                service.analyze(row)
            quiet = service.abstention_rate()
            for row in noise[:12]:
                result = service.analyze(row)
                assert not isinstance(result, Completed)
            surged = service.abstention_rate()
        assert quiet is not None and surged is not None
        assert surged > quiet
        assert surged >= 0.5
