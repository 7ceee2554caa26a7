"""The domain-shift scenario matrix: shift × strategy → MAE surface.

One :class:`MatrixSpec` pins the *entire* generating surface of a
campaign — task compounds, axis, base instrument characteristics, dataset
sizes, topology, seeds — so every cell is a pure function of
``(spec, scenario, strategy)``.  :class:`DriftMatrix` fans the cells out
through a :class:`~repro.compute.executor.ParallelExecutor` and keys each
one (and each trained model) in an
:class:`~repro.compute.cache.ArtifactCache`:

* **Resumable** — an interrupted campaign re-run completes from cache;
  only the cells that never finished are recomputed.
* **Byte-deterministic across backends** — cells consume only seeds
  derived from the canonical content of their configs, so ``serial``/
  ``thread``/``process`` produce identical surfaces.
* **Shared sub-artifacts** — the base model and the ensemble's
  drift-level members are cached as their own entries, so the expensive
  trainings happen once per campaign, not once per cell.

The output :class:`MatrixResult` is the Fig-6/7-style surface the
``bench_drift_matrix`` benchmark reports and the serving controller uses
to pick its recalibration strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adaptation.scenarios import DriftScenario, shifted_ms_simulator
from repro.adaptation.strategies import (
    STRATEGIES,
    AdaptationContext,
    adapt,
)
from repro.compute.cache import (
    ArtifactCache,
    canonical_key,
    derived_seed,
    get_or_compute,
    get_or_compute_row,
    read_row,
)
from repro.ms.compounds import check_compounds
from repro.nn.layers.base import _positive_int, _positive_rate
from repro.nn.serialization import weights_from_arrays, weights_to_arrays

__all__ = [
    "MatrixSpec",
    "MatrixResult",
    "DriftMatrix",
    "cell_config",
    "model_config",
    "run_cell",
]


@dataclass(frozen=True)
class MatrixSpec:
    """The full generating surface of one matrix campaign."""

    compounds: Tuple[str, ...]
    axis: Tuple[float, float, float] = (1.0, 50.0, 0.2)
    characteristics: Optional[dict] = None  # None = defaults
    n_train: int = 4000
    n_small: int = 512
    n_eval: int = 512
    epochs: int = 8
    fine_tune_epochs: int = 6
    fine_tune_lr: float = 0.002
    hidden_units: Tuple[int, ...] = (32,)
    seed: int = 0
    ensemble_member_scenarios: Tuple[DriftScenario, ...] = ()

    def __post_init__(self):
        if not self.compounds:
            raise ValueError("compounds must be non-empty")
        check_compounds(self.compounds)
        for label in ("n_train", "n_small", "n_eval", "epochs", "fine_tune_epochs"):
            _positive_int(label, getattr(self, label))
        _positive_rate("fine_tune_lr", self.fine_tune_lr)
        if not self.hidden_units or any(u < 1 for u in self.hidden_units):
            raise ValueError(
                f"hidden_units must be a non-empty positive unit stack, "
                f"got {self.hidden_units!r}"
            )
        for entry in self.ensemble_member_scenarios:
            if not isinstance(entry, DriftScenario):
                raise ValueError(
                    f"ensemble_member_scenarios entries must be "
                    f"DriftScenario, got {type(entry).__name__}"
                )


def _simulator(spec: MatrixSpec, scenario: Optional[DriftScenario]):
    """The spec's instrument, drifted by ``scenario`` (None = nominal)."""
    from repro.ms.simulator import MassSpectrometerSimulator

    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    if scenario is None or scenario.is_identity:
        return simulator
    return shifted_ms_simulator(simulator, scenario)


def model_config(
    spec: MatrixSpec, scenario: Optional[DriftScenario]
) -> dict:
    """The canonical config one trained model's cached weights are keyed by."""
    return {"kind": "drift_matrix_model", "spec": spec, "scenario": scenario}


def cell_config(
    spec: MatrixSpec, scenario: DriftScenario, strategy: str
) -> dict:
    """The canonical config one cell's cached row is keyed by."""
    return {
        "kind": "drift_matrix_cell",
        "spec": spec,
        "scenario": scenario,
        "strategy": strategy,
    }


def _train_model(
    spec: MatrixSpec,
    scenario: Optional[DriftScenario],
    cache: Optional[ArtifactCache],
):
    """Train (or reload) the model for one training-time scenario.

    ``scenario=None`` is the base model trained on the unshifted
    simulator; ensemble members pass their assumed drift level.  Weights
    are cached as arrays keyed by the full generating config.
    """
    from repro.core.topologies import mlp_topology
    from repro.ms.spectrum import MzAxis

    config = model_config(spec, scenario)
    topology = mlp_topology(len(spec.compounds), hidden_units=spec.hidden_units)
    input_shape = (MzAxis(*spec.axis).size,)

    def train() -> Dict[str, np.ndarray]:
        from repro.core.training_service import TrainingConfig, train_cell

        simulator = _simulator(spec, scenario)
        rng = np.random.default_rng(derived_seed("train", config))
        x, y = simulator.generate_dataset(spec.compounds, spec.n_train, rng)
        training = TrainingConfig(
            epochs=spec.epochs, batch_size=64, patience=None, seed=spec.seed,
            sentinel=False, learning_rate=0.006,
        )
        model = train_cell(training, topology, x, y)[0]
        return weights_to_arrays(model.get_weights())

    arrays, _, _ = get_or_compute(cache, config, train)
    model = topology.build(input_shape, seed=spec.seed)
    model.set_weights(weights_from_arrays(arrays))
    return model


def run_cell(payload: dict) -> dict:
    """Compute one (scenario, strategy) cell; module-level for pickling.

    Every random draw comes from seeds derived from the cell's canonical
    config, which is what makes cells byte-identical across backends and
    across resumed runs.
    """
    spec = payload["spec"]
    scenario = payload["scenario"]
    strategy = payload["strategy"]
    cache_root = payload.get("cache_root")
    cache = ArtifactCache(cache_root) if cache_root else None

    config = cell_config(spec, scenario, strategy)

    def compute() -> dict:
        base_model = _train_model(spec, None, cache)
        shifted = _simulator(spec, scenario)
        base = _simulator(spec, None)
        eval_rng = np.random.default_rng(
            derived_seed("eval", spec, scenario)
        )
        eval_x, eval_y = shifted.generate_dataset(
            spec.compounds, spec.n_eval, eval_rng
        )
        small_rng = np.random.default_rng(
            derived_seed("small", spec, scenario)
        )
        small_x, small_y = shifted.generate_dataset(
            spec.compounds, spec.n_small, small_rng
        )
        reference_rng = np.random.default_rng(
            derived_seed("reference", spec)
        )
        reference_x, _ = base.generate_dataset(
            spec.compounds, spec.n_small, reference_rng
        )
        members = []
        if strategy == "ensemble":
            members = [
                _train_model(spec, member, cache)
                for member in spec.ensemble_member_scenarios
            ]
        context = AdaptationContext(
            model=base_model,
            small_x=small_x,
            small_y=small_y,
            reference_x=reference_x,
            seed=spec.seed,
            fine_tune_epochs=spec.fine_tune_epochs,
            fine_tune_lr=spec.fine_tune_lr,
            member_models=members,
        )
        predictor = adapt(strategy, context)
        predictions = predictor(eval_x)
        mae = float(np.mean(np.abs(predictions - eval_y)))
        return {
            "scenario": scenario.name,
            "strategy": strategy,
            "mae": mae,
            "n_eval": spec.n_eval,
            "detail": predictor.detail,
        }

    return get_or_compute_row(cache, config, compute)


@dataclass
class MatrixResult:
    """The campaign's MAE surface plus any dead cells."""

    scenarios: List[str]
    strategies: List[str]
    rows: List[dict]
    failures: List[object] = field(default_factory=list)

    def surface(self) -> Dict[str, List[Optional[float]]]:
        """``{strategy: [mae per scenario, in scenario order]}``."""
        table: Dict[str, List[Optional[float]]] = {
            strategy: [None] * len(self.scenarios)
            for strategy in self.strategies
        }
        index = {name: i for i, name in enumerate(self.scenarios)}
        for row in self.rows:
            table[row["strategy"]][index[row["scenario"]]] = row["mae"]
        return table

    def best_strategy(self, scenario: str) -> Tuple[str, float]:
        """The winning strategy (lowest MAE) on one scenario column."""
        candidates = [
            (row["strategy"], row["mae"])
            for row in self.rows
            if row["scenario"] == scenario
        ]
        if not candidates:
            raise KeyError(f"no cells for scenario {scenario!r}")
        return min(candidates, key=lambda item: item[1])

    def to_payload(self) -> dict:
        """JSON-ready summary (what ``drift_matrix.json`` stores)."""
        return {
            "scenarios": list(self.scenarios),
            "strategies": list(self.strategies),
            "surface": self.surface(),
            "rows": [dict(row) for row in self.rows],
            "failures": [repr(failure) for failure in self.failures],
        }


class DriftMatrix:
    """Executes the scenario × strategy campaign."""

    def __init__(
        self,
        spec: MatrixSpec,
        scenarios: Sequence[DriftScenario],
        strategies: Sequence[str] = STRATEGIES,
        cache: Optional[ArtifactCache] = None,
        executor=None,
    ):
        if not scenarios:
            raise ValueError("scenarios must be non-empty")
        for strategy in strategies:
            if strategy not in STRATEGIES:
                raise ValueError(
                    f"unknown strategy {strategy!r}; expected one of "
                    f"{STRATEGIES}"
                )
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        self.spec = spec
        self.scenarios = list(scenarios)
        self.strategies = list(strategies)
        self.cache = cache
        self.executor = executor

    def payloads(self) -> List[dict]:
        cache_root = str(self.cache.root) if self.cache is not None else None
        return [
            {
                "spec": self.spec,
                "scenario": scenario,
                "strategy": strategy,
                "cache_root": cache_root,
            }
            for scenario in self.scenarios
            for strategy in self.strategies
        ]

    def run(self) -> MatrixResult:
        """Execute (or resume) every cell; returns the surface.

        The base model is pre-warmed in-parent so concurrent cold cells
        do not all train it; cells run through
        :func:`~repro.compute.executor.run_grid`.
        """
        from repro.compute.executor import ParallelExecutor, run_grid
        from repro.observability.runtime import get_tracer

        executor = (
            self.executor if self.executor is not None else ParallelExecutor()
        )
        payloads = self.payloads()
        keys = [None] * len(payloads)
        if self.cache is not None:
            _train_model(self.spec, None, self.cache)
            keys = [
                canonical_key(cell_config(p["spec"], p["scenario"], p["strategy"]))
                for p in payloads
            ]
        with get_tracer().start_span(
            "adaptation.matrix",
            attributes={
                "scenarios": len(self.scenarios),
                "strategies": len(self.strategies),
                "cached": self.cache is not None,
            },
        ) as span:
            grid = run_grid(
                executor, run_cell, keys, lambda i: payloads[i],
                lambda key: read_row(self.cache, key), label="drift_matrix",
            )
            span.set_attribute("failures", grid.failed)
        return MatrixResult(
            scenarios=[scenario.name for scenario in self.scenarios],
            strategies=list(self.strategies),
            rows=[row for row in grid.values if row is not None],
            failures=grid.failures,
        )
