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
  the serial training paths;
* the executor's per-task rng is deliberately unused, so cells are
  byte-identical across ``serial``/``thread``/``process`` backends and
  across killed-and-resumed runs.

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
        if not self.compounds:
            raise ValueError("compounds must be non-empty")
        for label in ("activations", "sample_sizes", "topologies"):
            if not getattr(self, label):
                raise ValueError(f"{label} must be non-empty")
        for pair in self.activations:
            if len(pair) != 2:
                raise ValueError(
                    f"activations entries must be (hidden, output) pairs, "
                    f"got {pair!r}"
                )
        for n in self.sample_sizes:
            if n < 1:
                raise ValueError(f"sample_sizes must be >= 1, got {n}")
        for stack in self.topologies:
            if not stack or any(units < 1 for units in stack):
                raise ValueError(
                    f"topologies entries must be non-empty positive "
                    f"unit stacks, got {stack!r}"
                )
        if self.n_eval < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("n_eval, epochs and batch_size must be >= 1")

    def as_config(self) -> dict:
        config = dataclasses.asdict(self)
        config["compounds"] = list(self.compounds)
        config["activations"] = [list(pair) for pair in self.activations]
        config["sample_sizes"] = list(self.sample_sizes)
        config["topologies"] = [list(stack) for stack in self.topologies]
        config["axis"] = list(self.axis)
        return config

    @classmethod
    def from_config(cls, config: dict) -> "CampaignSpec":
        config = dict(config)
        config["compounds"] = tuple(config["compounds"])
        config["activations"] = tuple(
            (str(hidden), str(output))
            for hidden, output in config["activations"]
        )
        config["sample_sizes"] = tuple(
            int(n) for n in config["sample_sizes"]
        )
        config["topologies"] = tuple(
            tuple(int(units) for units in stack)
            for stack in config["topologies"]
        )
        config["axis"] = tuple(config["axis"])
        return cls(**config)

    def campaign_key(self) -> str:
        """Canonical identity of the whole campaign (journal guard)."""
        return canonical_key({"kind": "campaign", "spec": self.as_config()})

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

    def as_config(self) -> dict:
        return {
            "activation": self.activation,
            "output_activation": self.output_activation,
            "n_train": int(self.n_train),
            "hidden_units": list(self.hidden_units),
        }


def cell_config(spec: CampaignSpec, cell: CampaignCell) -> dict:
    """The canonical config one cell's cached row is keyed by."""
    return {
        "kind": "campaign_cell",
        "spec": spec.as_config(),
        "cell": cell.as_config(),
    }


def train_dataset_seed(spec: CampaignSpec, n_train: int) -> int:
    """Seed of the shared training dataset for one sample-size column."""
    return derived_seed(
        "campaign_train", spec.dataset_surface(), {"n": int(n_train)}
    )


def eval_dataset_seed(spec: CampaignSpec) -> int:
    """Seed of the single evaluation dataset every cell scores against."""
    return derived_seed("campaign_eval", spec.dataset_surface())


def campaign_datasets(
    spec: CampaignSpec,
    n_train: int,
    cache: Optional[ArtifactCache],
):
    """Hydrate (or generate) the train/eval datasets for one column.

    This is the ArtifactCache-backed dataset handoff: the orchestrator
    pre-warms these entries in-parent, so workers reload the arrays from
    the content-addressed store instead of shipping them pickled through
    the task pipe — and every cell that shares ``n_train`` shares one
    artifact.
    """
    from repro.ms.simulator import MassSpectrometerSimulator

    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    train_x, train_y, train_info = generate_ms_dataset(
        simulator, list(spec.compounds), n_train,
        train_dataset_seed(spec, n_train), cache=cache,
    )
    eval_x, eval_y, eval_info = generate_ms_dataset(
        simulator, list(spec.compounds), spec.n_eval,
        eval_dataset_seed(spec), cache=cache,
    )
    return (train_x, train_y, train_info), (eval_x, eval_y, eval_info)


def run_campaign_cell(payload: dict, rng=None) -> dict:
    """Train and score one campaign cell; module-level for pickling.

    ``rng`` (the executor's per-task generator) is intentionally unused:
    every random draw comes from seeds derived from canonical config
    content, which is what makes cells byte-identical across backends
    and across killed-and-resumed campaigns.  The result row is cached
    under the cell config's canonical key, so re-running a completed
    cell is a verified read.
    """
    spec = CampaignSpec.from_config(payload["spec"])
    cell = CampaignCell(
        activation=payload["cell"]["activation"],
        output_activation=payload["cell"]["output_activation"],
        n_train=int(payload["cell"]["n_train"]),
        hidden_units=tuple(payload["cell"]["hidden_units"]),
    )
    cache_root = payload.get("cache_root")
    cache = ArtifactCache(cache_root) if cache_root else None

    def compute() -> dict:
        from repro.core.topologies import mlp_topology
        from repro.nn.optimizers import Adam

        (train_x, train_y, train_info), (eval_x, eval_y, _) = (
            campaign_datasets(spec, cell.n_train, cache)
        )
        topology = mlp_topology(
            len(spec.compounds),
            hidden_units=cell.hidden_units,
            activation=cell.activation,
            output_activation=cell.output_activation,
        )
        model = topology.build(train_x.shape[1:], seed=spec.seed)
        model.compile(Adam(spec.learning_rate), spec.loss)
        history = model.fit(
            train_x, train_y,
            epochs=spec.epochs, batch_size=spec.batch_size,
            seed=spec.seed, verbose=False,
        )
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
            "spec": self.spec.as_config(),
            "cells_total": len(self.spec.cells()),
            "cells_completed": len(self.rows),
            "rows": [dict(row) for row in self.rows],
            "failures": [dict(f) for f in self.failures],
            "accuracy_vs_samples": self.accuracy_vs_samples(),
            "topology_surface": self.topology_surface(),
            "sample_sizes": list(self.spec.sample_sizes),
        }
