"""Mean + spread predictors: deep ensembles and MC-dropout.

The quantification networks in the paper emit point concentrations; this
module wraps :class:`~repro.nn.model.Sequential` so every prediction
carries a *spread* alongside its mean.  Spread is the raw material the
conformal calibrator (:mod:`repro.uncertainty.conformal`) turns into
finite-sample intervals and the abstention policy turns into refusals.

Two estimators, one contract (:class:`UncertainPrediction`):

* :class:`EnsemblePredictor` — N independently trained members
  (different derived seeds → different inits and dataset draws);
  disagreement across members is the spread.
* :class:`MCDropoutPredictor` — T stochastic forward passes through one
  model with dropout forced on; disagreement across passes is the
  spread.  Dropout layers are re-seeded per pass from a
  ``SeedSequence`` tree so repeated calls are byte-identical.

Ensemble training follows the :mod:`repro.adaptation.matrix` campaign
idiom: every random draw comes from seeds derived from the canonical
content of an :class:`EnsembleSpec`, the executor's per-task rng is
deliberately unused, and each member's weights are their own
:class:`~repro.compute.cache.ArtifactCache` entry — so campaigns are
byte-identical across ``serial``/``thread``/``process`` backends and
resume from cache after an interruption.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compute.cache import ArtifactCache, derived_seed, get_or_compute
from repro.nn.serialization import weights_from_arrays, weights_to_arrays

__all__ = [
    "UncertainPrediction",
    "EnsemblePredictor",
    "MCDropoutPredictor",
    "EnsembleSpec",
    "train_ensemble",
    "train_member",
    "member_config",
]


@dataclass(frozen=True)
class UncertainPrediction:
    """A batch of predictions with per-output spread.

    ``mean`` and ``std`` are both ``(n_rows, n_outputs)`` float64; ``std``
    is the population standard deviation across members/passes (zero for
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


def _stack_prediction(stack: np.ndarray) -> UncertainPrediction:
    """Collapse a ``(members, rows, outputs)`` stack to mean + spread."""
    mean = np.mean(stack, axis=0)
    std = np.std(stack, axis=0)
    return UncertainPrediction(mean=mean, std=std)


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
        return _stack_prediction(stack)

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Point prediction only (drop the spread)."""
        return self.predict(x).mean


class MCDropoutPredictor:
    """Mean + spread from T stochastic dropout passes through one model.

    Only :class:`~repro.nn.layers.core.Dropout` layers run in training
    mode during the passes — normalization layers stay in inference mode
    so their running statistics are never mutated by prediction.  Each
    ``predict`` re-seeds every dropout layer per pass from a
    ``SeedSequence`` tree rooted at ``seed``, then restores the layers'
    original generators, so calls are byte-repeatable and leave the
    model's training-time randomness untouched.
    """

    def __init__(self, model, passes: int = 20, seed: int = 0):
        from repro.nn.layers.core import Dropout

        if passes < 2:
            raise ValueError(f"passes must be >= 2, got {passes}")
        self.model = model
        self.passes = int(passes)
        self.seed = int(seed)
        self._dropout_layers = [
            layer
            for layer in model.layers
            if isinstance(layer, Dropout) and layer.rate > 0.0
        ]
        if not self._dropout_layers:
            raise ValueError(
                "MC-dropout needs at least one Dropout layer with rate > 0; "
                "this model has none, so its spread would always be zero"
            )

    def predict(self, x: np.ndarray) -> UncertainPrediction:
        from repro.nn.layers.core import Dropout

        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
        saved = [(layer, layer._rng, layer._mask) for layer in self._dropout_layers]
        pass_seeds = np.random.SeedSequence(self.seed).spawn(self.passes)
        outputs = []
        try:
            for pass_seed in pass_seeds:
                layer_seeds = pass_seed.spawn(len(self._dropout_layers))
                for layer, layer_seed in zip(self._dropout_layers, layer_seeds):
                    layer._rng = np.random.default_rng(layer_seed)
                out = x
                for layer in self.model.layers:
                    out = layer.forward(
                        out, training=isinstance(layer, Dropout)
                    )
                outputs.append(np.asarray(out, dtype=np.float64))
        finally:
            for layer, rng, mask in saved:
                layer._rng = rng
                layer._mask = mask
        return _stack_prediction(np.stack(outputs))

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
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
            if getattr(self, label) < 1:
                raise ValueError(f"{label} must be >= 1")
        if not self.hidden_units or any(u < 1 for u in self.hidden_units):
            raise ValueError(
                f"hidden_units must be a non-empty positive unit stack, "
                f"got {self.hidden_units!r}"
            )

    def as_config(self) -> dict:
        config = dataclasses.asdict(self)
        config["compounds"] = list(self.compounds)
        config["axis"] = list(self.axis)
        config["hidden_units"] = list(self.hidden_units)
        return config

    @classmethod
    def from_config(cls, config: dict) -> "EnsembleSpec":
        config = dict(config)
        config["compounds"] = tuple(config["compounds"])
        config["axis"] = tuple(config["axis"])
        config["hidden_units"] = tuple(config["hidden_units"])
        return cls(**config)

    def input_length(self) -> int:
        from repro.ms.spectrum import MzAxis

        start, stop, step = self.axis
        return MzAxis(start, stop, step).size


def member_config(spec: EnsembleSpec, member: int) -> dict:
    """The canonical config one member's cached weights are keyed by."""
    return {
        "kind": "uncertainty_ensemble_member",
        "spec": spec.as_config(),
        "member": int(member),
    }


def _build_member(spec: EnsembleSpec, member_seed: int):
    from repro.core.topologies import mlp_topology

    topology = mlp_topology(
        len(spec.compounds), hidden_units=spec.hidden_units
    )
    return topology.build((spec.input_length(),), seed=member_seed)


def _train_member_weights(spec: EnsembleSpec, member: int) -> List[np.ndarray]:
    from repro.ms.simulator import MassSpectrometerSimulator
    from repro.nn.optimizers import Adam

    config = member_config(spec, member)
    member_seed = derived_seed("member", config)
    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    rng = np.random.default_rng(derived_seed("dataset", config))
    x, y = simulator.generate_dataset(spec.compounds, spec.n_train, rng)
    model = _build_member(spec, member_seed)
    model.compile(Adam(spec.learning_rate), "mae")
    model.fit(
        x, y, epochs=spec.epochs, batch_size=spec.batch_size,
        seed=member_seed, verbose=False,
    )
    return model.get_weights()


def train_member(payload: dict, rng=None) -> dict:
    """Train (or reload) one ensemble member; module-level for pickling.

    ``rng`` (the executor's per-task generator) is intentionally unused:
    every random draw comes from seeds derived from the member's
    canonical config, which is what makes members byte-identical across
    backends and across resumed runs.
    """
    spec = EnsembleSpec.from_config(payload["spec"])
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
        "weights": [
            np.asarray(w, dtype=np.float64) for w in weights_from_arrays(arrays)
        ],
        "cache_hit": hit,
    }


def train_ensemble(
    spec: EnsembleSpec,
    executor=None,
    cache: Optional[ArtifactCache] = None,
) -> EnsemblePredictor:
    """Train every member of ``spec`` and assemble the predictor.

    Members fan out through ``executor`` (serial if ``None``) and each
    caches its weights under its own content-addressed key, so an
    interrupted campaign resumes and a repeated one is all verified
    reads.  Any member that fails every permitted attempt aborts the
    campaign — a silently smaller ensemble would change the spread.
    """
    from repro.compute.executor import ParallelExecutor, TaskFailure

    executor = executor if executor is not None else ParallelExecutor()
    cache_root = str(cache.root) if cache is not None else None
    payloads = [
        {"spec": spec.as_config(), "member": i, "cache_root": cache_root}
        for i in range(spec.n_members)
    ]
    outcomes = executor.map_tasks(
        train_member, payloads, label="uncertainty_ensemble"
    )
    failures = [o for o in outcomes if isinstance(o, TaskFailure)]
    if failures:
        raise RuntimeError(
            f"{len(failures)}/{spec.n_members} ensemble members failed: "
            + "; ".join(f"{f.error_type}: {f.message}" for f in failures)
        )
    members = []
    for outcome in outcomes:
        config = member_config(spec, outcome["member"])
        model = _build_member(spec, derived_seed("member", config))
        model.set_weights(outcome["weights"])
        members.append(model)
    return EnsemblePredictor(members)
