"""Sweep orchestration: the paper grid as one resumable campaign.

The paper's central empirical surface is a grid — activation pairs ×
training-set sizes × topologies (Figs. 5–7, Table 2).  This package
turns that grid into a single supervised unit of experimentation:

* :mod:`repro.orchestration.campaign` — :class:`CampaignSpec` pins the
  grid's full generating surface (canonical-config keyed, like
  ``MatrixSpec``); :func:`run_campaign_cell` computes one cell as a pure
  function of config (seeds derived from it → byte-identical across
  backends and resumes) with its row cached under the cell
  config's canonical key; :class:`CampaignReport` aggregates the
  Fig-5/Fig-6 surfaces from rows in canonical grid order.
* :mod:`repro.orchestration.orchestrator` — :class:`SweepOrchestrator`
  plans cells against the :class:`~repro.compute.cache.ArtifactCache`,
  pre-warms the shared dataset artifacts, runs the grid through
  :func:`~repro.compute.executor.run_grid`, journals per-cell progress
  through the
  :class:`~repro.storage.journal.Journal` WAL, and resumes a killed or
  partly failed campaign to a byte-identical report — re-running is the
  only retry.

Layering: ``orchestration`` sits above ``compute``/``storage``/
``observability`` and imports ``core``/``nn``/``ms`` lazily inside cell
execution, mirroring ``adaptation``.
"""

from repro.orchestration.campaign import (
    CampaignCell,
    CampaignReport,
    CampaignSpec,
    cell_config,
    run_campaign_cell,
)
from repro.orchestration.orchestrator import (
    CampaignInProgressError,
    CampaignRunResult,
    IncompleteCampaignError,
    SweepOrchestrator,
    report_json,
)

__all__ = [
    "CampaignCell",
    "CampaignInProgressError",
    "CampaignReport",
    "CampaignRunResult",
    "CampaignSpec",
    "IncompleteCampaignError",
    "SweepOrchestrator",
    "cell_config",
    "report_json",
    "run_campaign_cell",
]
