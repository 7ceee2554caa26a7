"""ROBUSTNESS — conformal coverage, shift behaviour, and gate overhead.

The abstention gate is only trustworthy if the split-conformal interval
actually covers the truth at its nominal rate on exchangeable data.  This
bench trains a real (small) ensemble, calibrates at 90% nominal coverage,
and checks empirical coverage on a fresh held-out draw — the acceptance
bound is nominal minus five points.  It then sweeps the domain-shift
scenario ladder from the adaptation subsystem and reports how coverage,
interval width, and the abstention fraction respond as the instrument
drifts away from the calibration regime; only the identity column
carries a hard bound (coverage at the floor, abstention near zero), the
shifted columns are recorded as the trend surface.  Finally it measures
what the gate costs on top of a bare ensemble forward pass.
"""

import time

import numpy as np
import pytest

from repro.adaptation.scenarios import scenario_grid, shifted_ms_simulator
from repro.compute.cache import ArtifactCache
from repro.compute.executor import ParallelExecutor
from repro.ms.simulator import MassSpectrometerSimulator
from repro.uncertainty import (
    AbstentionPolicy,
    ConformalCalibrator,
    EnsembleSpec,
    UncertaintyGate,
    train_ensemble,
)

from conftest import print_table, scale, write_results

NOMINAL_ALPHA = 0.1
COVERAGE_FLOOR = (1.0 - NOMINAL_ALPHA) - 0.05
LEVELS = (0.0, 0.5, 1.0)


def _spec() -> EnsembleSpec:
    return EnsembleSpec(
        compounds=("H2", "N2", "O2"),
        axis=(1.0, 50.0, 0.5),
        n_train=scale(384, 3000),
        epochs=scale(2, 8),
        hidden_units=(16,),
        n_members=scale(3, 5),
        batch_size=32,
        seed=11,
    )


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    spec = _spec()
    cache = ArtifactCache(tmp_path_factory.mktemp("uncertainty_cache"))
    predictor = train_ensemble(
        spec,
        executor=ParallelExecutor(backend="thread", max_workers=4),
        cache=cache,
    )
    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    n_calibration = scale(192, 1000)
    calibration_x, calibration_y = simulator.generate_dataset(
        spec.compounds, n_calibration, np.random.default_rng(101)
    )
    calibrator = ConformalCalibrator(alpha=NOMINAL_ALPHA)
    calibrator.calibrate(predictor.predict(calibration_x), calibration_y)
    widths = calibrator.width(predictor.predict(calibration_x))
    policy = AbstentionPolicy(max_width=4.0 * float(np.percentile(widths, 95)))
    return spec, predictor, simulator, calibrator, policy


def test_held_out_coverage_meets_the_floor(benchmark, rig):
    """Benchmarked op: one gated assessment of a held-out batch."""
    spec, predictor, simulator, calibrator, policy = rig
    n_test = scale(256, 2000)
    test_x, test_y = simulator.generate_dataset(
        spec.compounds, n_test, np.random.default_rng(202)
    )
    coverage = calibrator.coverage(predictor.predict(test_x), test_y)
    assert coverage >= COVERAGE_FLOOR

    gate = UncertaintyGate(predictor, calibrator, policy=policy)
    assessment = benchmark(lambda: gate.assess(test_x[:64]))
    assert assessment.mean.shape == (64, len(spec.compounds))

    scenario_rows = []
    for scenario in scenario_grid(levels=LEVELS):
        shifted = shifted_ms_simulator(simulator, scenario)
        shift_x, shift_y = shifted.generate_dataset(
            spec.compounds, n_test, np.random.default_rng(303)
        )
        prediction = predictor.predict(shift_x)
        shift_assessment = AbstentionPolicy(
            max_width=policy.max_width
        ).assess(prediction, calibrator)
        scenario_rows.append(
            {
                "scenario": scenario.name,
                "coverage": float(
                    calibrator.coverage(prediction, shift_y)
                ),
                "mean_width": float(
                    np.mean(
                        shift_assessment.width[
                            np.isfinite(shift_assessment.width)
                        ]
                    )
                ),
                "abstain_fraction": float(
                    np.mean(shift_assessment.abstain)
                ),
            }
        )
    print_table(
        "Conformal behaviour under domain shift",
        scenario_rows,
        ["scenario", "coverage", "mean_width", "abstain_fraction"],
    )
    # Level 0 is the identity scenario: the gate must keep serving there.
    assert scenario_rows[0]["coverage"] >= COVERAGE_FLOOR
    assert scenario_rows[0]["abstain_fraction"] <= 0.25

    write_results(
        "uncertainty_coverage",
        {
            "spec": spec.as_config(),
            "nominal_coverage": 1.0 - NOMINAL_ALPHA,
            "coverage_floor": COVERAGE_FLOOR,
            "held_out_coverage": float(coverage),
            "n_test": n_test,
            "q_hat": calibrator.q_hat,
            "n_calibration": calibrator.n_calibration,
            "max_width": policy.max_width,
            "scenarios": scenario_rows,
        },
    )


def test_gate_overhead_over_bare_prediction(rig):
    """The refusal machinery must not dominate the forward pass."""
    spec, predictor, simulator, calibrator, policy = rig
    batch_x, _ = simulator.generate_dataset(
        spec.compounds, 64, np.random.default_rng(404)
    )
    gate = UncertaintyGate(predictor, calibrator, policy=policy)
    rounds = scale(5, 20)

    def _time(fn):
        fn()  # warm
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        return (time.perf_counter() - start) / rounds

    bare_s = _time(lambda: predictor.predict_mean(batch_x))
    gated_s = _time(lambda: gate.assess(batch_x))
    overhead = gated_s / bare_s
    print_table(
        "Gate overhead vs bare ensemble forward pass",
        [
            {
                "bare_ms": bare_s * 1e3,
                "gated_ms": gated_s * 1e3,
                "overhead_x": overhead,
            }
        ],
        ["bare_ms", "gated_ms", "overhead_x"],
    )
    # Both paths run the same ensemble forward pass; the conformal
    # arithmetic on top is vectorized numpy and must stay cheap.
    assert overhead < 5.0
