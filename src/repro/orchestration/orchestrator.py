"""The campaign runner: plan cells, skip cached, journal progress, resume.

:class:`SweepOrchestrator` turns a :class:`~repro.orchestration.campaign.CampaignSpec`
into a supervised run:

* **plan** — enumerate the grid in canonical order and probe the
  :class:`~repro.compute.cache.ArtifactCache` for each cell's canonical
  key, so the operator sees exactly what a run will cost before paying.
  A cell counts as cached only when its entry passes a verified read; a
  corrupt entry is quarantined and the cell is pending again;
* **prewarm** — publish the shared dataset artifacts (one per
  sample-size column plus the shared evaluation set, not one per
  worker) before any cell runs: one task per artifact, largest first,
  fanned out over the executor's pool, or generated in the parent when
  the executor is serial.  ``run()`` does not prewarm; a cell whose
  datasets are not cached generates them itself;
* **run** — fan pending cells out over a
  :class:`~repro.compute.executor.ParallelExecutor` in waves of
  ``executor.max_workers``, and append a journal record as each cell
  commits.  A failed cell is journaled and left pending: running again
  with ``resume=True`` is the retry;
* **resume** — an interrupted campaign leaves a ``campaign_started``
  journal record without its ``campaign_completed``; reopening with
  ``resume=True`` replays the journal, re-plans against the cache (the
  cache, not the journal, is the source of truth for completed work —
  a cell that committed its row before the kill replays as a verified
  cache hit even if its journal append was torn), and runs only what is
  missing.  Reopening *without* ``resume=True`` raises
  :class:`CampaignInProgressError` so two operators cannot silently
  interleave runs.

The final :class:`~repro.orchestration.campaign.CampaignReport` is built
from the verified cached rows plus the rows this run computed (each
exactly as it reads back from the cache), in canonical grid order, so a
killed-and-resumed campaign serializes byte-identically to an
uninterrupted one — the acceptance contract the resume tests pin.  The
report never trains: a cell without a verified row is pending.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.compute.cache import ArtifactCache, canonical_key
from repro.compute.executor import ParallelExecutor, TaskFailure
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

    def _scan(self) -> List[Tuple[CampaignCell, str, Optional[dict]]]:
        """``(cell, canonical key, verified cached row or None)`` per cell.

        A cell is cached only if its entry reads back verified; a corrupt
        entry is quarantined by that read, so the cell is pending and the
        next run computes and journals it.  Cells with no entry are not
        read.
        """
        scanned = []
        for cell in self.cells():
            key = canonical_key(cell_config(self.spec, cell))
            exists = self.cache.path_for(key).exists()
            scanned.append(
                (cell, key, self.cache.get_json(key) if exists else None)
            )
        return scanned

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

    def _payload(self, cell: CampaignCell) -> dict:
        return {
            "spec": self.spec,
            "cell": cell,
            "cache_root": str(self.cache.root),
        }

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
                event = (
                    "campaign_resumed" if state == "in_progress"
                    else "campaign_started"
                )
                journal.append(
                    {
                        "event": event,
                        "campaign_key": self.spec.campaign_key(),
                        "cells": len(self.cells()),
                    }
                )
                self._m_runs.inc(
                    disposition="resumed" if event == "campaign_resumed"
                    else "started"
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
        scanned = self._scan()
        report_rows = [row for _cell, _key, row in scanned if row is not None]
        pending = [
            (index, cell)
            for index, (cell, _key, row) in enumerate(scanned)
            if row is None
        ]
        executor = self.executor if self.executor is not None else ParallelExecutor()
        result = CampaignRunResult(
            report=None, cached=len(scanned) - len(pending)
        )
        for _ in range(result.cached):
            self._m_cells.inc(outcome="cached")
        budget = max_cells if max_cells is not None else len(pending)
        with get_tracer().start_span(
            "orchestration.campaign",
            attributes={
                "cells": len(scanned),
                "cached": result.cached,
                "pending": len(pending),
                "backend": executor.backend,
            },
        ) as span:
            scheduled = pending[:budget]
            wave_size = executor.max_workers
            for start in range(0, len(scheduled), wave_size):
                wave = scheduled[start:start + wave_size]
                rows = executor.map_tasks(
                    run_campaign_cell,
                    [self._payload(cell) for _index, cell in wave],
                    label="campaign",
                )
                for (index, cell), row in zip(wave, rows):
                    if isinstance(row, TaskFailure):
                        result.failed += 1
                        self._m_cells.inc(outcome="failed")
                        failure = {
                            "cell_id": cell.cell_id,
                            "error_type": row.error_type,
                            "message": row.message,
                        }
                        result.failures.append(failure)
                        if journal is not None:
                            journal.append(
                                {
                                    "event": "cell_failed",
                                    "campaign_key": self.spec.campaign_key(),
                                    **failure,
                                }
                            )
                        continue
                    result.computed += 1
                    report_rows.append(row)
                    self._m_cells.inc(outcome="computed")
                    if journal is not None:
                        journal.append(
                            {
                                "event": "cell_completed",
                                "campaign_key": self.spec.campaign_key(),
                                "cell_id": cell.cell_id,
                                "cell_index": index,
                                "cache_key": row.get("cache_key"),
                            }
                        )
                    if self.on_cell is not None:
                        self.on_cell(index, cell, row)
            result.paused = (
                result.computed + result.failed < len(pending)
            )
            span.set_attribute("computed", result.computed)
            span.set_attribute("failed", result.failed)
            span.set_attribute("paused", result.paused)
            if result.paused:
                self._m_runs.inc(disposition="paused")
                return result
            result.report = CampaignReport.from_rows(
                self.spec, report_rows, result.failures
            )
            if journal is not None and result.failed == 0:
                journal.append(
                    {
                        "event": "campaign_completed",
                        "campaign_key": self.spec.campaign_key(),
                        "cells": len(scanned),
                        "report_digest": canonical_key(
                            result.report.to_payload()
                        ),
                    }
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
