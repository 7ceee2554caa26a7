"""Mean + spread predictor: the deep ensemble.

The quantification networks in the paper emit point concentrations; this
module wraps :class:`~repro.nn.model.Sequential` so every prediction
carries a *spread* alongside its mean.  Spread is the raw material the
conformal calibrator (:mod:`repro.uncertainty.conformal`) turns into
finite-sample intervals and the abstention policy turns into refusals.

:class:`EnsemblePredictor` holds N independently trained members
(different derived seeds → different inits and dataset draws);
disagreement across members is the spread.  Spread alone does not flag
spectra unlike anything the members were trained on — the gate's input
check does (:class:`~repro.uncertainty.policy.UncertaintyGate`).

Ensemble training follows the :mod:`repro.adaptation.matrix` campaign
idiom: every random draw comes from seeds derived from the canonical
content of an :class:`EnsembleSpec`, and each member's weights are their own
:class:`~repro.compute.cache.ArtifactCache` entry — so campaigns are
byte-identical across ``serial``/``thread``/``process`` backends and
resume from cache after an interruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compute.cache import (
    ArtifactCache, canonical_key, derived_seed, get_or_compute,
)
from repro.nn.layers.base import _positive_int, _positive_rate
from repro.nn.serialization import weights_from_arrays, weights_to_arrays

__all__ = [
    "UncertainPrediction",
    "EnsemblePredictor",
    "EnsembleSpec",
    "train_ensemble",
    "train_member",
    "member_config",
]


@dataclass(frozen=True)
class UncertainPrediction:
    """A batch of predictions with per-output spread.

    ``mean`` and ``std`` are both ``(n_rows, n_outputs)`` float64; ``std``
    is the population standard deviation across members (zero for
    a single member — such a predictor can never express doubt, which is
    why :class:`EnsemblePredictor` requires at least two).
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 2:
            raise ValueError(
                f"mean/std must be matching 2-D arrays, got {mean.shape} "
                f"and {std.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def n_rows(self) -> int:
        return int(self.mean.shape[0])


class EnsemblePredictor:
    """Mean + spread from N independently trained models."""

    def __init__(self, members: Sequence):
        members = list(members)
        if len(members) < 2:
            raise ValueError(
                "an ensemble needs >= 2 members to express spread, got "
                f"{len(members)}"
            )
        self.members = members

    @property
    def n_members(self) -> int:
        return len(self.members)

    def predict(self, x: np.ndarray) -> UncertainPrediction:
        x = np.asarray(x, dtype=np.float64)
        stack = np.stack(
            [member.predict(x, validate=False) for member in self.members]
        )
        return UncertainPrediction(
            mean=np.mean(stack, axis=0), std=np.std(stack, axis=0)
        )

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Point prediction only (drop the spread)."""
        return self.predict(x).mean


@dataclass(frozen=True)
class EnsembleSpec:
    """The full generating surface of one ensemble campaign.

    Pure data: every member's dataset draw, weight init and shuffle
    order derive from the canonical content of this spec, so a campaign
    is a pure function of it — that is what makes member weights
    byte-identical across executor backends and cache-resumable.
    """

    compounds: Tuple[str, ...]
    axis: Tuple[float, float, float] = (1.0, 50.0, 0.2)
    characteristics: Optional[dict] = None  # None = defaults
    n_train: int = 2000
    epochs: int = 6
    hidden_units: Tuple[int, ...] = (32,)
    n_members: int = 5
    learning_rate: float = 0.006
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not self.compounds:
            raise ValueError("compounds must be non-empty")
        if self.n_members < 2:
            raise ValueError(f"n_members must be >= 2, got {self.n_members}")
        for label in ("n_train", "epochs", "batch_size"):
            _positive_int(label, getattr(self, label))
        _positive_rate("learning_rate", self.learning_rate)
        if not self.hidden_units or any(u < 1 for u in self.hidden_units):
            raise ValueError(
                f"hidden_units must be a non-empty positive unit stack, "
                f"got {self.hidden_units!r}"
            )

    def input_length(self) -> int:
        from repro.ms.spectrum import MzAxis

        start, stop, step = self.axis
        return MzAxis(start, stop, step).size


def member_config(spec: EnsembleSpec, member: int) -> dict:
    """The canonical config one member's cached weights are keyed by."""
    return {
        "kind": "uncertainty_ensemble_member",
        "spec": spec,
        "member": int(member),
    }


def _topology(spec: EnsembleSpec):
    from repro.core.topologies import mlp_topology

    return mlp_topology(len(spec.compounds), hidden_units=spec.hidden_units)


def _train_member_weights(spec: EnsembleSpec, member: int) -> List[np.ndarray]:
    from repro.core.training_service import TrainingConfig, train_cell
    from repro.ms.simulator import MassSpectrometerSimulator

    config = member_config(spec, member)
    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    rng = np.random.default_rng(derived_seed("dataset", config))
    x, y = simulator.generate_dataset(spec.compounds, spec.n_train, rng)
    training = TrainingConfig(
        epochs=spec.epochs, batch_size=spec.batch_size, patience=None,
        seed=derived_seed("member", config), sentinel=False,
        learning_rate=spec.learning_rate,
    )
    return train_cell(training, _topology(spec), x, y)[0].get_weights()


def _member_weights(arrays) -> List[np.ndarray]:
    return [
        np.asarray(w, dtype=np.float64) for w in weights_from_arrays(arrays)
    ]


def train_member(payload: dict) -> dict:
    """Train (or reload) one ensemble member; module-level for pickling.

    Every random draw comes from seeds derived from the member's
    canonical config, which is what makes members byte-identical across
    backends and across resumed runs.
    """
    spec = payload["spec"]
    member = int(payload["member"])
    cache_root = payload.get("cache_root")
    cache = ArtifactCache(cache_root) if cache_root else None
    arrays, _, hit = get_or_compute(
        cache,
        member_config(spec, member),
        lambda: weights_to_arrays(_train_member_weights(spec, member)),
    )
    return {
        "member": member,
        "weights": _member_weights(arrays),
        "cache_hit": hit,
    }


def train_ensemble(
    spec: EnsembleSpec,
    executor=None,
    cache: Optional[ArtifactCache] = None,
) -> EnsemblePredictor:
    """Train every member of ``spec`` and assemble the predictor.

    Members run through :func:`~repro.compute.executor.run_grid` on
    ``executor`` (serial if ``None``), each cached under its own
    content-addressed key, so an interrupted campaign resumes.  Any
    member that fails aborts the campaign — a silently smaller ensemble
    would change the spread.
    """
    from repro.compute.executor import ParallelExecutor, run_grid

    executor = executor if executor is not None else ParallelExecutor()
    cache_root = str(cache.root) if cache is not None else None
    configs = [member_config(spec, i) for i in range(spec.n_members)]

    def read(key: str) -> Optional[dict]:
        entry = cache.get(key)
        return None if entry is None else {"weights": _member_weights(entry[0])}

    grid = run_grid(
        executor, train_member,
        [canonical_key(c) if cache is not None else None for c in configs],
        lambda i: {"spec": spec, "member": i, "cache_root": cache_root},
        read, label="uncertainty_ensemble",
    )
    if grid.failures:
        raise RuntimeError(
            f"{len(grid.failures)}/{spec.n_members} ensemble members failed: "
            + "; ".join(f"{f.error_type}: {f.message}" for f in grid.failures)
        )
    members = []
    for config, outcome in zip(configs, grid.values):
        model = _topology(spec).build(
            (spec.input_length(),), seed=derived_seed("member", config)
        )
        model.set_weights(outcome["weights"])
        members.append(model)
    return EnsemblePredictor(members)
