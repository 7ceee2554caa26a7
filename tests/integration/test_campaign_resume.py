"""Kill/resume chaos for the campaign orchestrator.

The acceptance contract: a campaign killed mid-grid resumes via journal +
cache — completed cells replay as verified cache hits, only the missing
cells run — and the final report is byte-identical to a run that was
never interrupted.  The kill reuses the SimulatedCrash machinery (a
BaseException, so no containment layer can accidentally swallow it), and
a torn-journal variant proves the cache, not the journal, is the source
of truth for completed work.
"""

import pytest

from repro.compute import ArtifactCache, ParallelExecutor
from repro.orchestration import (
    CampaignInProgressError,
    CampaignSpec,
    SweepOrchestrator,
    report_json,
)
from repro.reliability.storage_faults import StorageFaultInjector
from repro.storage.integrity import (
    SimulatedCrash,
    clear_injector,
    install_injector,
)

SPEC = CampaignSpec(
    compounds=("N2", "O2"),
    activations=(("relu", "softmax"), ("selu", "softmax")),
    sample_sizes=(48, 96),
    topologies=((6,),),
    n_eval=24,
    epochs=1,
    seed=9,
)  # 2 activations x 2 sizes x 1 topology = 4 cells


def _kill_after(n_cells):
    """An on_cell hook that SIGKILLs the campaign after n cells commit."""
    seen = []

    def hook(index, cell, row):
        seen.append(cell.cell_id)
        if len(seen) >= n_cells:
            raise SimulatedCrash(f"killed after {n_cells} cells")

    return hook


def _control_report(tmp_path):
    """The uninterrupted run every resumed report must match."""
    cache = ArtifactCache(tmp_path / "control-cache")
    orchestrator = SweepOrchestrator(
        SPEC, cache, journal_path=str(tmp_path / "control.journal")
    )
    return report_json(orchestrator.run().report)


class TestKillResume:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        journal_path = str(tmp_path / "campaign.journal")
        orchestrator = SweepOrchestrator(
            SPEC, cache, journal_path=journal_path,
            executor=ParallelExecutor(max_workers=1),
            on_cell=_kill_after(2),
        )
        with pytest.raises(SimulatedCrash):
            orchestrator.run()

        # Reopen: the journal records an unfinished campaign.
        reopened = SweepOrchestrator(
            SPEC, cache, journal_path=journal_path
        )
        with pytest.raises(CampaignInProgressError):
            reopened.run()

        # The two cells that committed before the kill read back verified.
        assert sum(entry["cached"] for entry in reopened.plan()) == 2

        # Resume runs only the missing cells and completes the grid.
        result = reopened.run(resume=True)
        assert result.complete
        assert result.computed == 2 and result.cached == 2
        assert report_json(result.report) == _control_report(tmp_path)

    def test_double_kill_then_resume(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        journal_path = str(tmp_path / "campaign.journal")
        for _ in range(2):
            orchestrator = SweepOrchestrator(
                SPEC, cache, journal_path=journal_path,
            executor=ParallelExecutor(max_workers=1),
                on_cell=_kill_after(1),
            )
            with pytest.raises(SimulatedCrash):
                orchestrator.run(resume=True)
        reopened = SweepOrchestrator(
            SPEC, cache, journal_path=journal_path
        )
        result = reopened.run(resume=True)
        assert result.complete
        assert result.computed == 2 and result.cached == 2
        assert report_json(result.report) == _control_report(tmp_path)

    def test_torn_journal_append_does_not_lose_cached_work(self, tmp_path):
        """A crash tearing a cell_completed record itself is survivable.

        The injector is armed from the on_cell hook after the first cell
        commits, so the tear lands on the *second* cell's cell_completed
        append — that cell's row already committed to the cache, so
        replay discards the torn tail, the plan still sees both cells as
        cached, and resume produces the byte-identical report.
        """
        cache = ArtifactCache(tmp_path / "cache")
        journal_path = str(tmp_path / "campaign.journal")
        faults = StorageFaultInjector(torn_append_at=5, match=".journal")

        def arm_once(index, cell, row):
            if not faults.events:
                install_injector(faults)

        orchestrator = SweepOrchestrator(
            SPEC, cache, journal_path=journal_path,
            executor=ParallelExecutor(max_workers=1),
            on_cell=arm_once,
        )
        try:
            with pytest.raises(SimulatedCrash):
                orchestrator.run()
        finally:
            clear_injector()
        assert faults.fault_counts.get("torn_append") == 1

        reopened = SweepOrchestrator(SPEC, cache, journal_path=journal_path)
        # Both the journaled first cell and the torn-record second cell
        # survive as cache entries: the cache is the source of truth.
        assert sum(e["cached"] for e in reopened.plan()) == 2
        result = reopened.run(resume=True)
        assert result.complete
        assert result.computed == 2 and result.cached == 2
        assert report_json(result.report) == _control_report(tmp_path)
