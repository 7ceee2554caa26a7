"""Sim-to-real adaptation: domain-shift scenarios, strategies, the matrix.

The paper's conclusion names the open lifecycle problem — systems must be
"automatically and reliably adapted to perturbations or changes in
parameters" in production — and three of the PAPERS.md related works show
that simulated-trained models degrade *non-uniformly* under real-world
shift.  This package turns that from an anecdote into a measured surface:

* :mod:`repro.adaptation.scenarios` — a parameterized domain-shift axis
  (sensitivity drift, noise family/scale, peak-shift severity, baseline
  wander) applied to the MS and NMR simulators to manufacture
  "shifted-real" instruments;
* :mod:`repro.adaptation.strategies` — adaptation strategies (none,
  small-real fine-tune, per-channel scaler recalibration, ensemble of
  drift-level models) producing candidate predictors;
* :mod:`repro.adaptation.matrix` — the scenario × strategy campaign:
  MAE-on-shifted-real surface executed through
  :class:`~repro.compute.executor.ParallelExecutor` with
  :class:`~repro.compute.cache.ArtifactCache`-keyed cells, so an
  interrupted campaign resumes from cache and every backend produces
  byte-identical cells.
"""

from repro.adaptation.matrix import DriftMatrix, MatrixResult, MatrixSpec
from repro.adaptation.scenarios import (
    DriftScenario,
    scenario_grid,
    shift_characteristics,
    shifted_ms_simulator,
    shifted_nmr_simulator,
)
from repro.adaptation.strategies import (
    STRATEGIES,
    AdaptationContext,
    adapt,
)

__all__ = [
    "AdaptationContext",
    "DriftMatrix",
    "DriftScenario",
    "MatrixResult",
    "MatrixSpec",
    "STRATEGIES",
    "adapt",
    "scenario_grid",
    "shift_characteristics",
    "shifted_ms_simulator",
    "shifted_nmr_simulator",
]
