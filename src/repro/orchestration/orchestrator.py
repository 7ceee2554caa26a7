"""The campaign runner: plan cells, skip cached, journal progress, resume.

:class:`SweepOrchestrator` turns a :class:`~repro.orchestration.campaign.CampaignSpec`
into a supervised run:

* **plan** — the grid in canonical order with each cell's canonical key
  and whether its entry passes a verified read (a corrupt entry is
  quarantined and its cell is pending again), so the operator sees what
  a run will cost before paying;
* **prewarm** — publish the shared dataset artifacts (one per
  sample-size column plus the evaluation set) before any cell runs, one
  executor task each, largest first.  ``run()`` does not prewarm; a cell
  whose datasets are not cached generates them itself;
* **run** — the grid through :func:`~repro.compute.executor.run_grid`,
  with a journal record as each cell commits.  A failed cell is
  journaled and left pending: running again is the retry;
* **resume** — reopening an interrupted campaign (a ``campaign_started``
  record without its ``campaign_completed``) needs ``resume=True``, so
  two operators cannot silently interleave runs.  The cache, not the
  journal, is the source of truth for completed work: a cell whose
  journal append was torn still replays as a verified hit.

The :class:`~repro.orchestration.campaign.CampaignReport` is built from
the verified cached rows plus the rows this run computed, in canonical
grid order, so a killed-and-resumed campaign serializes byte-identically
to an uninterrupted one.  The report never trains: a cell without a
verified row is pending.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.compute.cache import ArtifactCache, canonical_key
from repro.compute.executor import ParallelExecutor, TaskFailure, run_grid
from repro.observability.runtime import get_registry, get_tracer
from repro.orchestration.campaign import (
    CampaignCell,
    CampaignReport,
    CampaignSpec,
    cell_config,
    dataset_artifacts,
    prewarm_campaign_dataset,
    run_campaign_cell,
)
from repro.storage.journal import Journal

__all__ = [
    "CampaignInProgressError",
    "IncompleteCampaignError",
    "CampaignRunResult",
    "SweepOrchestrator",
    "report_json",
]


class CampaignInProgressError(RuntimeError):
    """The journal shows a started-but-unfinished run and resume=False."""


class IncompleteCampaignError(RuntimeError):
    """A strict report was requested while cells are still pending."""


@dataclass
class CampaignRunResult:
    """What one ``run()`` invocation did.

    ``report`` is None when the run paused early (``max_cells``) with
    cells still pending; resume with ``run(resume=True)``.
    """

    report: Optional[CampaignReport]
    computed: int = 0
    cached: int = 0
    failed: int = 0
    paused: bool = False
    failures: List[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.report is not None


class SweepOrchestrator:
    """Plans, executes, journals and resumes one campaign grid."""

    def __init__(
        self,
        spec: CampaignSpec,
        cache: ArtifactCache,
        journal_path: Optional[str] = None,
        executor: Optional[ParallelExecutor] = None,
        on_cell: Optional[Callable[[int, CampaignCell, dict], None]] = None,
    ):
        self.spec = spec
        self.cache = cache
        self.journal_path = journal_path
        self.executor = executor
        # Parent-side hook fired after each newly computed cell commits
        # (tests use it to kill a run at a precise point in the grid).
        self.on_cell = on_cell
        registry = get_registry()
        self._m_cells = registry.counter(
            "orchestration_cells_total", "campaign cells by outcome"
        )
        self._m_runs = registry.counter(
            "orchestration_runs_total", "campaign run() calls by disposition"
        )

    # -- planning ------------------------------------------------------------

    def cells(self) -> List[CampaignCell]:
        return self.spec.cells()

    def plan(self) -> List[dict]:
        """One entry per cell: id, canonical key, and cached state."""
        return [
            {"cell_id": cell.cell_id, "key": key, "cached": row is not None}
            for cell, key, row in self._scan()
        ]

    def _keys(self) -> List[str]:
        return [
            canonical_key(cell_config(self.spec, cell)) for cell in self.cells()
        ]

    def _read_row(self, key: str) -> Optional[dict]:
        """The verified cached row under ``key``, or None (a corrupt entry
        is quarantined by the read; a key with no entry is not read)."""
        if not self.cache.path_for(key).exists():
            return None
        return self.cache.get_json(key)

    def _scan(self) -> List[Tuple[CampaignCell, str, Optional[dict]]]:
        """``(cell, canonical key, verified cached row or None)`` per cell."""
        return [
            (cell, key, self._read_row(key))
            for cell, key in zip(self.cells(), self._keys())
        ]

    # -- journal -------------------------------------------------------------

    def _journal(self) -> Optional[Journal]:
        if self.journal_path is None:
            return None
        return Journal(self.journal_path)

    def _journal_state(self, journal: Journal) -> str:
        """``'fresh'`` | ``'in_progress'`` | ``'completed'``.

        Also guards against pointing one journal at a different
        campaign: every record carries the campaign key.
        """
        if not journal.exists():
            return "fresh"
        records, _stats = journal.replay()
        state = "fresh"
        for record in records:
            recorded_key = record.get("campaign_key")
            if recorded_key is not None and recorded_key != self.spec.campaign_key():
                raise ValueError(
                    f"journal {self.journal_path} belongs to campaign "
                    f"{recorded_key[:12]}…, not {self.spec.campaign_key()[:12]}…"
                )
            event = record.get("event")
            if event in ("campaign_started", "campaign_resumed"):
                state = "in_progress"
            elif event == "campaign_completed":
                state = "completed"
        return state

    # -- execution -----------------------------------------------------------

    def _record(self, journal: Optional[Journal], event: str, **fields) -> None:
        if journal is not None:
            journal.append(
                {"event": event, "campaign_key": self.spec.campaign_key(),
                 **fields}
            )

    def run(
        self,
        resume: bool = False,
        max_cells: Optional[int] = None,
    ) -> CampaignRunResult:
        """Execute (or resume) the campaign; returns what happened.

        ``max_cells`` stops scheduling after that many *newly computed*
        cells commit, leaving the journal in progress — the deterministic
        pause the CI smoke uses in place of an actual kill.  Completed
        campaigns re-run as pure cache replay and still return the full
        report.
        """
        if max_cells is not None and max_cells < 0:
            raise ValueError("max_cells must be >= 0")
        journal = self._journal()
        try:
            if journal is not None:
                state = self._journal_state(journal)
                if state == "in_progress" and not resume:
                    raise CampaignInProgressError(
                        f"journal {self.journal_path} records an unfinished "
                        f"campaign; pass resume=True (CLI: --resume) to "
                        f"continue it"
                    )
                resumed = state == "in_progress"
                self._record(
                    journal,
                    "campaign_resumed" if resumed else "campaign_started",
                    cells=len(self.cells()),
                )
                self._m_runs.inc(
                    disposition="resumed" if resumed else "started"
                )
            else:
                self._m_runs.inc(disposition="unjournaled")
            return self._run_cells(journal, max_cells)
        finally:
            if journal is not None:
                journal.close()

    def _run_cells(
        self, journal: Optional[Journal], max_cells: Optional[int]
    ) -> CampaignRunResult:
        cells = self.cells()
        executor = self.executor if self.executor is not None else ParallelExecutor()
        result = CampaignRunResult(report=None)

        def on_result(index: int, row) -> None:
            cell = cells[index]
            if isinstance(row, TaskFailure):
                self._m_cells.inc(outcome="failed")
                failure = {
                    "cell_id": cell.cell_id,
                    "error_type": row.error_type,
                    "message": row.message,
                }
                result.failures.append(failure)
                self._record(journal, "cell_failed", **failure)
                return
            self._m_cells.inc(outcome="computed")
            self._record(
                journal, "cell_completed", cell_id=cell.cell_id,
                cell_index=index, cache_key=row.get("cache_key"),
            )
            if self.on_cell is not None:
                self.on_cell(index, cell, row)

        with get_tracer().start_span(
            "orchestration.campaign",
            attributes={"cells": len(cells), "backend": executor.backend},
        ) as span:
            grid = run_grid(
                executor,
                run_campaign_cell,
                self._keys(),
                lambda index: {
                    "spec": self.spec,
                    "cell": cells[index],
                    "cache_root": str(self.cache.root),
                },
                self._read_row,
                label="campaign",
                max_new=max_cells,
                on_result=on_result,
            )
            result.cached, result.computed = grid.cached, grid.computed
            result.failed, result.paused = grid.failed, grid.paused
            for _ in range(grid.cached):
                self._m_cells.inc(outcome="cached")
            for name in ("cached", "computed", "failed", "paused"):
                span.set_attribute(name, getattr(result, name))
            if result.paused:
                self._m_runs.inc(disposition="paused")
                return result
            result.report = CampaignReport.from_rows(
                self.spec,
                [row for row in grid.values if row is not None],
                result.failures,
            )
            if journal is not None and result.failed == 0:
                self._record(
                    journal, "campaign_completed", cells=len(cells),
                    report_digest=canonical_key(result.report.to_payload()),
                )
                self._m_runs.inc(disposition="completed")
        return result

    # -- reporting -----------------------------------------------------------

    def prewarm_datasets(self) -> int:
        """Generate the shared dataset artifacts before the cells fan out.

        One training set per sample-size column plus the single shared
        evaluation set; returns how many artifacts were cache misses.
        Running this before fan-out stops N concurrent cold workers all
        generating the same spectra.  Each artifact is one executor task,
        largest first, that publishes its entry to the cache and returns
        only hit or miss; with no executor, or a serial one, the tasks
        run in the parent.  ``run()`` does not call this.
        """
        artifacts = dataset_artifacts(self.spec)
        executor = self.executor if self.executor is not None else ParallelExecutor()
        hits = executor.map_tasks(
            prewarm_campaign_dataset,
            [
                {"spec": self.spec, "n": n, "seed": seed,
                 "cache_root": str(self.cache.root)}
                for _name, n, seed in artifacts
            ],
            label="prewarm",
        )
        for (name, _n, _seed), hit in zip(artifacts, hits):
            if isinstance(hit, TaskFailure):
                raise RuntimeError(
                    f"prewarm of dataset {name} failed: "
                    f"{hit.error_type}: {hit.message}"
                )
        return sum(not hit for hit in hits)

    def report(self, strict: bool = True) -> CampaignReport:
        """The aggregated surface of whatever the cache holds.

        ``strict=True`` (the default) refuses to summarize a partial
        campaign; pass ``strict=False`` to render work-in-progress.
        """
        scanned = self._scan()
        missing = [cell.cell_id for cell, _key, row in scanned if row is None]
        if missing and strict:
            raise IncompleteCampaignError(
                f"{len(missing)} of {len(scanned)} cells have not completed "
                f"(first missing: {missing[0]}); run the campaign or pass "
                f"strict=False"
            )
        rows = [row for _cell, _key, row in scanned if row is not None]
        return CampaignReport.from_rows(self.spec, rows)

    def to_status(self) -> dict:
        """JSON-ready plan summary for the CLI."""
        plan = self.plan()
        cached = sum(1 for entry in plan if entry["cached"])
        return {
            "campaign_key": self.spec.campaign_key(),
            "cells": len(plan),
            "cached": cached,
            "pending": len(plan) - cached,
            "plan": plan,
        }


def report_json(report: CampaignReport) -> str:
    """The canonical serialized form (what byte-identity is asserted on)."""
    return json.dumps(report.to_payload(), sort_keys=True, indent=2)
