"""Unit tests for the cache-resumable drift matrix."""

import numpy as np
import pytest

from repro.adaptation.matrix import DriftMatrix, MatrixSpec, run_cell
from repro.adaptation.scenarios import DriftScenario, scenario_grid
from repro.compute.cache import ArtifactCache
from repro.compute.executor import ParallelExecutor

# Small enough to train in well under a second per model.
SPEC = MatrixSpec(
    compounds=("H2", "CH4"),
    n_train=250,
    n_small=48,
    n_eval=64,
    epochs=2,
    fine_tune_epochs=2,
    hidden_units=(12,),
)
SCENARIOS = scenario_grid(levels=(0.0, 1.0))


def _matrix(cache=None, strategies=("none", "scaler_recal"), executor=None):
    executor = executor if executor is not None else ParallelExecutor(
        backend="serial"
    )
    return DriftMatrix(
        SPEC, SCENARIOS, strategies=strategies, cache=cache, executor=executor
    )


class TestSpec:
    def test_config_round_trip(self):
        spec = MatrixSpec(
            compounds=("H2", "N2"),
            ensemble_member_scenarios=(
                DriftScenario(name="m", sensitivity_drift=0.1).as_config(),
            ),
        )
        assert MatrixSpec.from_config(spec.as_config()) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"compounds": ()}, id="no_compounds"),
            pytest.param({"n_eval": 0}, id="n_eval_0"),
            pytest.param({"hidden_units": (0,)}, id="zero_units"),
            pytest.param({"hidden_units": ()}, id="empty_stack"),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            MatrixSpec(**{"compounds": ("H2",), **overrides})


class TestConstruction:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            DriftMatrix(SPEC, SCENARIOS, strategies=("prayer",))

    def test_duplicate_scenario_names_rejected(self):
        duplicated = [SCENARIOS[0], SCENARIOS[0]]
        with pytest.raises(ValueError, match="unique"):
            DriftMatrix(SPEC, duplicated)

    def test_payloads_cover_the_full_grid(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        matrix = _matrix(cache=cache)
        payloads = matrix.payloads()
        assert len(payloads) == len(SCENARIOS) * 2
        assert {p["strategy"] for p in payloads} == {"none", "scaler_recal"}
        assert all(p["cache_root"] == str(cache.root) for p in payloads)


class TestExecution:
    def test_surface_complete_and_finite(self, tmp_path):
        result = _matrix(cache=ArtifactCache(tmp_path)).run()
        assert result.failures == []
        surface = result.surface()
        assert set(surface) == {"none", "scaler_recal"}
        for maes in surface.values():
            assert len(maes) == len(SCENARIOS)
            assert all(np.isfinite(m) for m in maes)

    def test_rerun_completes_from_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = _matrix(cache=cache).run()
        assert all(not row["cache_hit"] for row in first.rows)
        second = _matrix(cache=cache).run()
        assert all(row["cache_hit"] for row in second.rows)
        assert first.surface() == second.surface()

    def test_interrupted_run_resumes(self, tmp_path):
        """A cell computed alone is a verified read in the full campaign."""
        cache = ArtifactCache(tmp_path)
        matrix = _matrix(cache=cache)
        payloads = matrix.payloads()
        row = run_cell(payloads[0])  # "the run died after one cell"
        assert not row["cache_hit"]
        result = matrix.run()
        hits = {
            (r["scenario"], r["strategy"]): r["cache_hit"]
            for r in result.rows
        }
        assert hits[(row["scenario"], row["strategy"])]
        assert sum(hits.values()) == 1

    def test_byte_deterministic_across_backends(self, tmp_path):
        serial = _matrix(cache=ArtifactCache(tmp_path / "a")).run()
        threaded = _matrix(
            cache=ArtifactCache(tmp_path / "b"),
            executor=ParallelExecutor(backend="thread", max_workers=2),
        ).run()
        assert serial.surface() == threaded.surface()

    def test_best_strategy_and_payload(self, tmp_path):
        result = _matrix(cache=ArtifactCache(tmp_path)).run()
        name, mae = result.best_strategy(SCENARIOS[-1].name)
        assert name in ("none", "scaler_recal")
        assert np.isfinite(mae)
        payload = result.to_payload()
        assert payload["scenarios"] == [s.name for s in SCENARIOS]
        assert len(payload["rows"]) == len(result.rows)
        with pytest.raises(KeyError):
            result.best_strategy("no-such-scenario")

    def test_uncached_cell_still_computes(self):
        matrix = _matrix(cache=None)
        row = run_cell(matrix.payloads()[0])
        assert np.isfinite(row["mae"])
        assert row["cache_hit"] is False
