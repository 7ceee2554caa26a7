"""ROBUSTNESS — the domain-shift scenario matrix: drift × strategy → MAE.

The paper's lifecycle discussion asks how a deployed network behaves when
the instrument drifts away from the state it was trained for, and what
recalibration buys.  This bench runs the full scenario matrix — a grid of
compounded drift levels (sensitivity loss, noise growth, peak shift,
baseline wander) against every adaptation strategy — and reports the MAE
surface.

Expected shape: the unadapted network ("none") degrades steeply with
drift level while fine-tuning on a small drifted set largely recovers it;
the gap on the high-drift column is the value of adaptation.  The run is
also a working demonstration of the campaign mechanics: every cell is
content-addressed in an :class:`~repro.compute.cache.ArtifactCache`, so
an immediate re-run completes entirely from cache (the resume path an
interrupted campaign takes).
"""

import numpy as np
import pytest

from repro.adaptation.matrix import DriftMatrix, MatrixSpec, run_cell
from repro.adaptation.scenarios import scenario_grid
from repro.compute.cache import ArtifactCache
from repro.compute.executor import ParallelExecutor

from conftest import print_table, scale, write_results

STRATEGIES = ("none", "fine_tune", "scaler_recal", "ensemble")

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
GRID_KWARGS = dict(
    max_sensitivity_drift=0.45,
    max_noise_scale=3.0,
    max_peak_shift=0.08,
    max_baseline_wander=5.0,
)


def _spec() -> MatrixSpec:
    scenarios = scenario_grid(levels=LEVELS, **GRID_KWARGS)
    return MatrixSpec(
        compounds=("H2", "CH4", "N2", "O2"),
        n_train=scale(1500, 12_000),
        n_small=scale(256, 1024),
        n_eval=scale(256, 2048),
        epochs=scale(5, 12),
        fine_tune_epochs=scale(8, 12),
        hidden_units=(24,),
        # The ensemble hedges across drift levels it was told to expect.
        ensemble_member_scenarios=(
            scenarios[len(scenarios) // 2],
            scenarios[-1],
        ),
    )


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cache = ArtifactCache(tmp_path_factory.mktemp("drift_matrix_cache"))
    scenarios = scenario_grid(levels=LEVELS, **GRID_KWARGS)
    matrix = DriftMatrix(
        _spec(),
        scenarios,
        strategies=STRATEGIES,
        cache=cache,
        executor=ParallelExecutor(backend="thread", max_workers=4),
    )
    cold = matrix.run()
    resumed = matrix.run()  # must complete entirely from cache
    return matrix, cold, resumed


def test_drift_matrix_surface(benchmark, campaign):
    """Benchmarked op: one uncached matrix cell (train reused, adapt+eval)."""
    matrix, cold, resumed = campaign
    assert cold.failures == []

    surface = cold.surface()
    scenarios = cold.scenarios
    for maes in surface.values():
        assert all(m is not None and np.isfinite(m) for m in maes)

    rows = [
        {"scenario": name, **{s: surface[s][i] for s in STRATEGIES}}
        for i, name in enumerate(scenarios)
    ]
    print_table(
        "Drift matrix: MAE by scenario (rows) and strategy (columns)",
        rows,
        ["scenario", *STRATEGIES],
    )

    # Adaptation must pay for itself where it matters: the high-drift
    # column. (On the nominal column "none" is allowed to win.)
    high = scenarios[-1]
    best_name, best_mae = cold.best_strategy(high)
    unadapted = surface["none"][-1]
    assert best_name != "none"
    assert best_mae < unadapted

    benchmark.pedantic(
        lambda: run_cell(
            {**matrix.payloads()[0], "strategy": "scaler_recal",
             "cache_root": None}
        ),
        iterations=1,
        rounds=3,
    )

    write_results(
        "drift_matrix",
        {
            **cold.to_payload(),
            "high_drift": {
                "scenario": high,
                "best_strategy": best_name,
                "best_mae": best_mae,
                "unadapted_mae": unadapted,
                "recovered_fraction": 1.0 - best_mae / unadapted,
            },
        },
    )


def test_rerun_resumes_from_cache(campaign):
    """The resume path: a completed campaign re-run is pure cache reads."""
    _, cold, resumed = campaign
    assert all(row["cache_hit"] for row in resumed.rows)
    assert resumed.surface() == cold.surface()
