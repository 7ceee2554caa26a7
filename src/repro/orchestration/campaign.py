"""The paper-reproduction campaign grid: spec, cells, and report.

One :class:`CampaignSpec` pins the full generating surface of a
Fig-5/Fig-6-style campaign — the grid axes (hidden/output activation
pairs × training-set sizes × MLP topologies) plus everything the axes
share (compounds, instrument, m/z axis, evaluation set size, training
budget, seeds).  From it every :class:`CampaignCell` is a *pure function
of configuration*:

* the training and evaluation datasets draw from seeds derived from the
  canonical content of the dataset's own generating surface, so every
  cell with the same ``n_train`` reuses one cached dataset artifact —
  workers hydrate spectra through the
  :class:`~repro.compute.cache.ArtifactCache` instead of receiving them
  pickled per task;
* model build/init/fit determinism comes from ``spec.seed`` exactly as in
  the serial training paths.

No other randomness reaches a cell, so cells are byte-identical across
``serial``/``thread``/``process`` backends and across killed-and-resumed
runs.

:func:`run_campaign_cell` is the module-level executor task (picklable);
each cell caches its result row under the canonical key of its cell
config, which is what makes an interrupted campaign resumable: cells that
committed their row before the kill replay as cache hits.

:class:`CampaignReport` aggregates the rows into the two surfaces the
paper plots: accuracy versus training-set size per activation pair
(Fig. 5) and the per-topology comparison (Fig. 6).  Its
:meth:`~CampaignReport.to_payload` is canonical — rows in grid order,
run-variant fields stripped — so a resumed campaign's report is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compute.cache import (
    ArtifactCache,
    canonical_key,
    derived_seed,
    get_or_compute_row,
)
from repro.compute.datasets import generate_ms_dataset
from repro.nn.layers.base import _positive_int, _positive_rate

__all__ = [
    "CampaignSpec",
    "CampaignCell",
    "CampaignReport",
    "run_campaign_cell",
    "cell_config",
]

# Fields added to a cell row at run time that must NOT appear in the
# canonical report payload (they vary between a cold run and a resume).
_RUN_VARIANT_FIELDS = ("cache_hit", "cache_key")


@dataclass(frozen=True)
class CampaignSpec:
    """The full generating surface of one reproduction campaign.

    Grid axes: ``activations`` are ``(hidden, output)`` activation pairs,
    ``sample_sizes`` are training-set sizes, ``topologies`` are MLP
    hidden-layer stacks.  Everything else is shared by every cell.
    """

    compounds: Tuple[str, ...]
    activations: Tuple[Tuple[str, str], ...] = (("relu", "softmax"),)
    sample_sizes: Tuple[int, ...] = (1000, 4000)
    topologies: Tuple[Tuple[int, ...], ...] = ((32,),)
    axis: Tuple[float, float, float] = (1.0, 50.0, 0.2)
    characteristics: Optional[dict] = None  # None = instrument defaults
    n_eval: int = 512
    epochs: int = 8
    batch_size: int = 64
    learning_rate: float = 0.006
    loss: str = "mae"
    seed: int = 0

    def __post_init__(self):
        from repro.ms.compounds import check_compounds
        from repro.nn.activations import get_activation

        if not self.compounds:
            raise ValueError("compounds must be non-empty")
        check_compounds(self.compounds)
        for label in ("activations", "sample_sizes", "topologies"):
            values = getattr(self, label)
            if not values:
                raise ValueError(f"{label} must be non-empty")
            # A repeated value would plan cells sharing one id and key.
            for index, value in enumerate(values):
                if value in values[:index]:
                    raise ValueError(f"{label} repeats {value!r}")
        for pair in self.activations:
            if len(pair) != 2:
                raise ValueError(
                    f"activations entries must be (hidden, output) pairs, "
                    f"got {pair!r}"
                )
            for name in pair:
                try:
                    get_activation(name)
                except (TypeError, ValueError) as error:
                    raise ValueError(
                        f"activations entry {pair!r}: {error}"
                    ) from None
        for n in self.sample_sizes:
            if n < 1:
                raise ValueError(f"sample_sizes must be >= 1, got {n}")
        for stack in self.topologies:
            if not stack or any(units < 1 for units in stack):
                raise ValueError(
                    f"topologies entries must be non-empty positive "
                    f"unit stacks, got {stack!r}"
                )
        for name in ("n_eval", "epochs", "batch_size"):
            _positive_int(name, getattr(self, name))
        _positive_rate("learning_rate", self.learning_rate)

    def campaign_key(self) -> str:
        """Canonical identity of the whole campaign (journal guard)."""
        return canonical_key({"kind": "campaign", "spec": self})

    def dataset_surface(self) -> dict:
        """The fields that determine dataset bytes — and nothing more.

        Deliberately excludes the grid axes: adding a topology to the
        campaign must not re-seed (and therefore regenerate) the shared
        datasets every existing cell trained on.
        """
        return {
            "compounds": list(self.compounds),
            "axis": list(self.axis),
            "characteristics": self.characteristics,
            "seed": self.seed,
        }

    def cells(self) -> List["CampaignCell"]:
        """Every grid cell, in canonical (activation, n, topology) order."""
        return [
            CampaignCell(
                activation=hidden,
                output_activation=output,
                n_train=n,
                hidden_units=stack,
            )
            for hidden, output in self.activations
            for n in self.sample_sizes
            for stack in self.topologies
        ]


@dataclass(frozen=True)
class CampaignCell:
    """One grid coordinate: (activation pair, sample size, topology)."""

    activation: str
    output_activation: str
    n_train: int
    hidden_units: Tuple[int, ...]

    @property
    def activation_id(self) -> str:
        return f"{self.activation}-{self.output_activation}"

    @property
    def topology_id(self) -> str:
        return "x".join(str(units) for units in self.hidden_units)

    @property
    def cell_id(self) -> str:
        return f"{self.activation_id}/n{self.n_train}/h{self.topology_id}"


def cell_config(spec: CampaignSpec, cell: CampaignCell) -> dict:
    """The canonical config one cell's cached row is keyed by."""
    return {"kind": "campaign_cell", "spec": spec, "cell": cell}


def train_dataset_seed(spec: CampaignSpec, n_train: int) -> int:
    """Seed of the shared training dataset for one sample-size column."""
    return derived_seed(
        "campaign_train", spec.dataset_surface(), {"n": int(n_train)}
    )


def eval_dataset_seed(spec: CampaignSpec) -> int:
    """Seed of the single evaluation dataset every cell scores against."""
    return derived_seed("campaign_eval", spec.dataset_surface())


def _campaign_dataset(
    spec: CampaignSpec,
    n: int,
    seed: int,
    cache: Optional[ArtifactCache],
):
    """Hydrate (or generate) one dataset artifact: ``(x, y, info)``."""
    from repro.ms.simulator import MassSpectrometerSimulator

    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    return generate_ms_dataset(
        simulator, list(spec.compounds), n, seed, cache=cache
    )


def campaign_datasets(
    spec: CampaignSpec,
    n_train: int,
    cache: Optional[ArtifactCache],
):
    """Hydrate (or generate) the train/eval datasets for one column.

    This is the ArtifactCache-backed dataset handoff: the orchestrator's
    prewarm publishes these entries before the cells run, so cell tasks
    reload the arrays from the content-addressed store instead of
    shipping them pickled through the task pipe — and every cell that
    shares ``n_train`` shares one artifact.
    """
    return (
        _campaign_dataset(
            spec, n_train, train_dataset_seed(spec, n_train), cache
        ),
        _campaign_dataset(spec, spec.n_eval, eval_dataset_seed(spec), cache),
    )


def dataset_artifacts(spec: CampaignSpec) -> List[Tuple[str, int, int]]:
    """``(name, n, seed)`` of every distinct dataset artifact, largest first.

    One training set per sample-size column plus the single evaluation
    set every cell scores against.  Largest first, so the longest
    generation starts first when prewarm fans out.
    """
    artifacts = [
        (f"train/n{n}", int(n), train_dataset_seed(spec, n))
        for n in spec.sample_sizes
    ]
    artifacts.append(
        (f"eval/n{spec.n_eval}", int(spec.n_eval), eval_dataset_seed(spec))
    )
    return sorted(artifacts, key=lambda artifact: -artifact[1])


def prewarm_campaign_dataset(payload: dict) -> bool:
    """Generate and publish one dataset artifact; module-level for pickling.

    Returns only whether the entry was already a verified cache hit: the
    arrays stay in the cache and never travel back through the task pipe.
    """
    _x, _y, info = _campaign_dataset(
        payload["spec"], payload["n"], payload["seed"],
        ArtifactCache(payload["cache_root"]),
    )
    return bool(info["hit"])


def run_campaign_cell(payload: dict) -> dict:
    """Train and score one campaign cell; module-level for pickling.

    Every random draw comes from seeds derived from canonical config
    content, which is what makes cells byte-identical across backends
    and across killed-and-resumed campaigns.  The result row is cached
    under the cell config's canonical key, so re-running a completed
    cell is a verified read.
    """
    spec = payload["spec"]
    cell = payload["cell"]
    cache_root = payload.get("cache_root")
    cache = ArtifactCache(cache_root) if cache_root else None

    def compute() -> dict:
        from repro.core.topologies import mlp_topology
        from repro.core.training_service import TrainingConfig, train_cell

        (train_x, train_y, train_info), (eval_x, eval_y, _) = (
            campaign_datasets(spec, cell.n_train, cache)
        )
        topology = mlp_topology(
            len(spec.compounds),
            hidden_units=cell.hidden_units,
            activation=cell.activation,
            output_activation=cell.output_activation,
        )
        config = TrainingConfig(
            epochs=spec.epochs, batch_size=spec.batch_size, loss=spec.loss,
            patience=None, seed=spec.seed, sentinel=False,
            learning_rate=spec.learning_rate,
        )
        model, history, _ = train_cell(config, topology, train_x, train_y)
        predictions = model.predict(eval_x)
        error = predictions - eval_y
        return {
            "cell_id": cell.cell_id,
            "activation": cell.activation,
            "output_activation": cell.output_activation,
            "n_train": int(cell.n_train),
            "hidden_units": list(cell.hidden_units),
            "mae": float(np.mean(np.abs(error))),
            "mse": float(np.mean(error ** 2)),
            "final_train_loss": float(history.history["loss"][-1]),
            "epochs_run": len(history.epochs),
            "n_eval": int(spec.n_eval),
            "dataset_key": train_info["key"],
        }

    return get_or_compute_row(cache, cell_config(spec, cell), compute)


@dataclass
class CampaignReport:
    """The campaign's aggregated Fig-5/Fig-6 surfaces.

    ``rows`` hold one result dict per completed cell, in canonical grid
    order and stripped of run-variant fields, so two reports over the
    same completed campaign serialize byte-identically no matter how
    (or how many times) the campaign was interrupted.
    """

    spec: CampaignSpec
    rows: List[dict]
    failures: List[dict] = field(default_factory=list)

    @classmethod
    def from_rows(
        cls,
        spec: CampaignSpec,
        rows: List[dict],
        failures: Optional[List[dict]] = None,
    ) -> "CampaignReport":
        """Canonicalize: strip run-variant fields, sort into grid order."""
        order = {cell.cell_id: i for i, cell in enumerate(spec.cells())}
        cleaned = []
        for row in rows:
            row = {
                key: value for key, value in row.items()
                if key not in _RUN_VARIANT_FIELDS
            }
            cleaned.append(row)
        cleaned.sort(key=lambda row: order.get(row["cell_id"], len(order)))
        return cls(
            spec=spec,
            rows=cleaned,
            failures=sorted(
                (dict(f) for f in (failures or [])),
                key=lambda f: order.get(f.get("cell_id", ""), len(order)),
            ),
        )

    def accuracy_vs_samples(self, metric: str = "mae") -> Dict[str, List[Optional[float]]]:
        """Fig-5 surface: ``{activation_id: [metric per sample size]}``.

        Each point averages the metric over the topology axis, matching
        the paper's per-activation accuracy-vs-training-set-size curves.
        """
        return self._surface(
            lambda row: f"{row['activation']}-{row['output_activation']}",
            metric,
        )

    def topology_surface(self, metric: str = "mae") -> Dict[str, List[Optional[float]]]:
        """Fig-6 surface: ``{topology_id: [metric per sample size]}``,
        averaged over the activation axis."""
        return self._surface(
            lambda row: "x".join(str(u) for u in row["hidden_units"]), metric
        )

    def _surface(self, group, metric: str) -> Dict[str, List[Optional[float]]]:
        """``{group(row): [mean metric per sample size, None if no row]}``."""
        sizes = self.spec.sample_sizes
        index = {n: i for i, n in enumerate(sizes)}
        values: Dict[str, List[List[float]]] = {}
        for row in self.rows:
            column = values.setdefault(group(row), [[] for _ in sizes])
            column[index[int(row["n_train"])]].append(float(row[metric]))
        return {
            name: [sum(cell) / len(cell) if cell else None for cell in column]
            for name, column in values.items()
        }

    def best_cell(self, metric: str = "mae") -> dict:
        """The winning cell (lowest metric) over the whole grid."""
        if not self.rows:
            raise ValueError("campaign has no completed cells")
        return min(self.rows, key=lambda row: float(row[metric]))

    def to_payload(self) -> dict:
        """Canonical JSON-ready form (byte-stable across resumes)."""
        return {
            "kind": "campaign_report",
            "campaign_key": self.spec.campaign_key(),
            "spec": dataclasses.asdict(self.spec),
            "cells_total": len(self.spec.cells()),
            "cells_completed": len(self.rows),
            "rows": [dict(row) for row in self.rows],
            "failures": [dict(f) for f in self.failures],
            "accuracy_vs_samples": self.accuracy_vs_samples(),
            "topology_surface": self.topology_surface(),
            "sample_sizes": list(self.spec.sample_sizes),
        }
