"""The paper's primary contribution: the simulate-augment-train flow.

This package sits on top of the substrates (:mod:`repro.nn`,
:mod:`repro.ms`, :mod:`repro.nmr`, :mod:`repro.db`, :mod:`repro.embedded`)
and implements the flow the paper proposes:

* :mod:`repro.core.topologies` — declarative network-topology specs,
  including Table 1 and its eight activation-function variants (Fig. 5),
  the NMR conv/LSTM models, and the preliminary-study MLP/ResNet/Highway
  variants;
* :mod:`repro.core.datasets` — labelled spectra datasets with splits;
* :mod:`repro.core.augmentation` — plateau emulation and window slicing
  for the LSTM time-series model;
* :mod:`repro.core.pipeline` — the four-tool MS toolchain (Fig. 3),
  end-to-end: reference measurements -> characterization -> simulator ->
  dataset -> trained network -> evaluation on "real" measurements;
* :mod:`repro.core.training_service` — unattended multi-topology training
  with database-backed provenance (Tool 4's front/backend);
* :mod:`repro.core.evaluation` — per-compound error reports, plateau
  standard deviations and quality criteria for model selection.
"""

from repro.core.topologies import (
    TopologySpec,
    activation_study_variants,
    mlp_topology,
    highway_topology,
    nmr_conv_topology,
    nmr_lstm_topology,
    resnet_topology,
    table1_topology,
)
from repro.core.datasets import SpectraDataset
from repro.core.augmentation import plateau_time_series, sliding_windows
from repro.core.pipeline import MSToolchain, ToolchainResult
from repro.core.training_service import TrainingConfig, TrainingService
from repro.core.evaluation import (
    evaluate_per_compound,
    measurements_to_arrays,
    plateau_standard_deviation,
)
from repro.core.lifecycle import DriftMonitor, DriftStatus
from repro.core.closed_loop import (
    ClosedLoopSimulation,
    ControlStep,
    PIController,
    ann_analyzer,
    ihm_analyzer,
)

__all__ = [
    "ClosedLoopSimulation",
    "ControlStep",
    "DriftMonitor",
    "DriftStatus",
    "MSToolchain",
    "PIController",
    "ann_analyzer",
    "ihm_analyzer",
    "SpectraDataset",
    "ToolchainResult",
    "TopologySpec",
    "TrainingConfig",
    "TrainingService",
    "activation_study_variants",
    "evaluate_per_compound",
    "highway_topology",
    "measurements_to_arrays",
    "mlp_topology",
    "nmr_conv_topology",
    "nmr_lstm_topology",
    "plateau_standard_deviation",
    "plateau_time_series",
    "resnet_topology",
    "sliding_windows",
    "table1_topology",
]
