"""Unit tests for the sweep orchestrator: plan, run, journal, resume."""

import dataclasses

import pytest

from repro.compute import BACKENDS, ArtifactCache, ParallelExecutor
from repro.observability.runtime import scoped
from repro.orchestration import (
    CampaignInProgressError,
    CampaignSpec,
    IncompleteCampaignError,
    SweepOrchestrator,
    report_json,
)
from repro.reliability.storage_faults import bit_flip_file
from repro.storage.journal import Journal

SPEC = CampaignSpec(
    compounds=("N2", "O2"),
    activations=(("relu", "softmax"), ("selu", "softmax")),
    sample_sizes=(48,),
    topologies=((6,),),
    n_eval=24,
    epochs=1,
    seed=5,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def _orchestrator(cache, tmp_path, **kwargs):
    kwargs.setdefault("journal_path", str(tmp_path / "campaign.journal"))
    return SweepOrchestrator(SPEC, cache, **kwargs)


class TestPlan:
    def test_cold_plan_is_all_pending(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        plan = orchestrator.plan()
        assert len(plan) == 2
        assert all(not entry["cached"] for entry in plan)
        assert plan[0]["cell_id"] == "relu-softmax/n48/h6"

    def test_plan_reflects_cache_state_after_run(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run()
        assert all(entry["cached"] for entry in orchestrator.plan())

    def test_to_status_counts(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run(max_cells=1, resume=False)
        status = orchestrator.to_status()
        assert status["cells"] == 2
        assert status["cached"] == 1
        assert status["pending"] == 1


class TestRun:
    def test_full_run_completes_with_report(self, cache, tmp_path):
        result = _orchestrator(cache, tmp_path).run()
        assert result.complete and not result.paused
        assert result.computed == 2 and result.cached == 0
        assert len(result.report.rows) == 2

    def test_rerun_is_pure_cache_replay(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        first = orchestrator.run()
        second = orchestrator.run()
        assert second.computed == 0 and second.cached == 2
        assert report_json(second.report) == report_json(first.report)

    def test_max_cells_pauses_without_report(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        result = orchestrator.run(max_cells=1)
        assert result.paused and result.report is None
        assert result.computed == 1

    def test_prewarm_generates_shared_datasets_once(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        assert orchestrator.prewarm_datasets() == 2  # one train + one eval
        assert orchestrator.prewarm_datasets() == 0

    def test_cell_counters(self, cache, tmp_path):
        with scoped() as (registry, _):
            orchestrator = _orchestrator(cache, tmp_path)
            orchestrator.run(max_cells=1)
            orchestrator.run(resume=True)
            cells = registry.counter("orchestration_cells_total")
            assert cells.value(outcome="computed") == 2
            assert cells.value(outcome="cached") == 1

    def test_campaign_span_emitted(self, cache, tmp_path):
        with scoped() as (_, tracer):
            _orchestrator(cache, tmp_path).run()
        spans = [
            span for span in tracer.finished_spans()
            if span.name == "orchestration.campaign"
        ]
        assert len(spans) == 1
        assert spans[0].attributes["cells"] == 2
        assert spans[0].attributes["computed"] == 2


class TestJournal:
    def test_unfinished_run_refused_without_resume(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run(max_cells=1)
        with pytest.raises(CampaignInProgressError, match="--resume"):
            orchestrator.run()

    def test_resume_completes_the_grid(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run(max_cells=1)
        result = orchestrator.run(resume=True)
        assert result.complete
        assert result.computed == 1 and result.cached == 1

    def test_completed_campaign_reopens_without_resume(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run()
        result = orchestrator.run()  # no resume needed: journal shows completed
        assert result.complete

    def test_journal_guards_against_wrong_campaign(self, cache, tmp_path):
        journal_path = str(tmp_path / "campaign.journal")
        SweepOrchestrator(SPEC, cache, journal_path=journal_path).run(
            max_cells=1
        )
        other_spec = CampaignSpec(
            compounds=("N2", "O2"),
            activations=(("relu", "softmax"),),
            sample_sizes=(48,),
            topologies=((6,),),
            n_eval=24,
            epochs=1,
            seed=6,
        )
        other = SweepOrchestrator(other_spec, cache, journal_path=journal_path)
        with pytest.raises(ValueError, match="belongs to campaign"):
            other.run(resume=True)

    def test_unjournaled_run_works(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path, journal_path=None)
        assert orchestrator.run().complete


class TestReport:
    def test_strict_report_refuses_partial_campaign(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run(max_cells=1)
        with pytest.raises(IncompleteCampaignError, match="1 of 2"):
            orchestrator.report()

    def test_partial_report_renders_what_exists(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run(max_cells=1)
        report = orchestrator.report(strict=False)
        assert len(report.rows) == 1

    def test_report_matches_run_report(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        run_report = orchestrator.run().report
        assert report_json(orchestrator.report()) == report_json(run_report)


class TestPrewarm:
    """Prewarm fans out over a pool and publishes what a serial one does."""

    SPEC = dataclasses.replace(SPEC, sample_sizes=(48, 96))

    def _prewarmed(self, backend, root):
        cache = ArtifactCache(root)
        with ParallelExecutor(backend, max_workers=2) as executor:
            orchestrator = SweepOrchestrator(
                self.SPEC, cache, executor=executor
            )
            misses = (
                orchestrator.prewarm_datasets(),
                orchestrator.prewarm_datasets(),
            )
            stats = dict(executor.last_map_stats)
            entries = {
                path.name: path.read_bytes()
                for path in sorted(root.iterdir()) if path.is_file()
            }
            report = report_json(orchestrator.run().report)
        return {"misses": misses, "stats": stats, "entries": entries,
                "report": report}

    def test_process_prewarm_matches_serial(self, tmp_path):
        serial = self._prewarmed("serial", tmp_path / "serial")
        process = self._prewarmed("process", tmp_path / "process")
        # Two training sets plus the shared eval set, then all hits.
        assert serial["misses"] == process["misses"] == (3, 0)
        # One task per artifact; the process pool was built by the first
        # prewarm, so the second paid no startup.
        for run in (serial, process):
            assert run["stats"]["label"] == "prewarm"
            assert run["stats"]["tasks"] == 3
        assert process["stats"]["pool_startup_s"] == 0.0
        assert len(serial["entries"]) == 3
        assert process["entries"] == serial["entries"]
        assert process["report"] == serial["report"]

    def test_failed_task_raises_naming_the_dataset(self, tmp_path):
        def fail_first(index):
            if index == 0:
                raise OSError("disk full")

        with ParallelExecutor("thread", max_workers=2,
                              chaos=fail_first) as executor:
            orchestrator = SweepOrchestrator(
                self.SPEC, ArtifactCache(tmp_path / "cache"),
                executor=executor,
            )
            with pytest.raises(RuntimeError,
                               match="dataset train/n96 .*OSError: disk full"):
                orchestrator.prewarm_datasets()


def _corrupt_first_cell(orchestrator):
    key = orchestrator.plan()[0]["key"]
    bit_flip_file(str(orchestrator.cache.path_for(key)))


class TestCorruptCell:
    """A cached cell whose entry fails verification is pending again."""

    def test_corrupt_cell_recomputed_and_journaled(self, cache, tmp_path):
        first = _orchestrator(cache, tmp_path).run()
        committed = []
        orchestrator = _orchestrator(
            cache, tmp_path, on_cell=lambda *args: committed.append(args[0])
        )
        _corrupt_first_cell(orchestrator)
        second = orchestrator.run()
        assert (second.computed, second.cached, committed) == (1, 1, [0])
        assert report_json(second.report) == report_json(first.report)
        records, _ = Journal(str(tmp_path / "campaign.journal")).replay()
        assert [r["event"] for r in records].count("cell_completed") == 3

    def test_strict_report_refuses_corrupt_cell(self, cache, tmp_path):
        orchestrator = _orchestrator(cache, tmp_path)
        orchestrator.run()
        _corrupt_first_cell(orchestrator)
        with pytest.raises(IncompleteCampaignError, match="1 of 2"):
            orchestrator.report()


def test_report_byte_identical_on_every_backend(tmp_path):
    """Config seeds are the only source of randomness in a cell."""
    reports = set()
    for backend in BACKENDS:
        with ParallelExecutor(backend, max_workers=2) as executor:
            result = SweepOrchestrator(
                SPEC, ArtifactCache(tmp_path / backend), executor=executor
            ).run()
        assert result.computed == 2
        reports.add(report_json(result.report))
    assert len(reports) == 1
