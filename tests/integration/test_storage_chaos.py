"""Storage-fault chaos: durable state survives kills and corruption.

The acceptance contract for the durable-state layer: kill/corrupt
injected at arbitrary points during checkpoint save and journal append
never loses more than the in-flight record —
``TrainingService`` resumes from the newest verified generation,
``DocumentStore.recover()`` replays every committed write, corrupted
files are quarantined (never deleted), and the fallback/quarantine
events are visible in provenance.
"""

import os

import numpy as np
import pytest

from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.document_store import DocumentStore
from repro.db.provenance import ProvenanceTracker
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.storage_faults import (
    StorageFaultInjector,
    bit_flip_file,
)
from repro.serving import AnalysisService
from repro.storage.integrity import CorruptArtifactError


def _dataset(n=120, length=12, outputs=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, length))
    y = x @ rng.random((length, outputs))
    y = y / y.sum(axis=1, keepdims=True)
    return SpectraDataset(x, y, tuple(f"c{i}" for i in range(outputs)))


def _config(epochs=3):
    return TrainingConfig(epochs=epochs, batch_size=32, patience=None)


SPEC = [mlp_topology(3, hidden_units=(16,))]


def _two_generations(manager, dataset):
    """Run the sweep twice: each run adds one final snapshot generation."""
    for _ in range(2):
        TrainingService(_config(), checkpoints=manager).train_all(
            SPEC, dataset
        )
    assert manager.generations_of("sweep-mlp_16") == [1, 2]


class TestCheckpointSaveChaos:
    @pytest.mark.parametrize("torn_at", [0, 60, 500, 4000])
    def test_kill_mid_checkpoint_save_resumes_from_verified(
        self, tmp_path, torn_at
    ):
        """Tear the final checkpoint write at arbitrary byte offsets; the
        sweep must resume from the newest generation that verifies."""
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        service = TrainingService(_config(), checkpoints=manager)
        with StorageFaultInjector(torn_write_at=torn_at, match=".ckpt"):
            try:
                service.train_all(SPEC, dataset)
            except BaseException:
                pass  # the "process" died mid-save somewhere in the sweep
        # Restart: whatever landed on disk must either verify or be
        # quarantined and fallen back from — never crash the resume.
        provenance = ProvenanceTracker()
        resumed = TrainingService(
            _config(), provenance=provenance, checkpoints=manager
        )
        runs = resumed.train_all(SPEC, dataset, resume=True)
        assert len(runs) == 1
        assert np.isfinite(list(runs[0].metrics.values())).all()

    def test_bit_flipped_newest_generation_falls_back(self, tmp_path):
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        _two_generations(manager, dataset)
        name = "sweep-mlp_16"
        generations = manager.generations_of(name)
        newest = manager._generation_path(name, generations[-1])
        bit_flip_file(newest, seed=7)

        provenance = ProvenanceTracker()
        resumed = TrainingService(
            _config(), provenance=provenance, checkpoints=manager
        )
        runs = resumed.train_all(SPEC, dataset, resume=True)
        assert len(runs) == 1
        counts = provenance.counts_by_kind()
        # Fallback and quarantine are visible in provenance...
        assert counts.get("quarantine", 0) >= 1
        assert counts.get("fallback", 0) >= 1
        # ...and the corrupt file was preserved in quarantine, not deleted.
        assert os.path.basename(newest) in manager.quarantined()

    def test_every_generation_corrupt_retrains_from_scratch(self, tmp_path):
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        TrainingService(_config(), checkpoints=manager).train_all(
            SPEC, dataset
        )
        name = "sweep-mlp_16"
        for generation in manager.generations_of(name):
            bit_flip_file(
                manager._generation_path(name, generation), seed=generation
            )
        provenance = ProvenanceTracker()
        runs = TrainingService(
            _config(), provenance=provenance, checkpoints=manager
        ).train_all(SPEC, dataset, resume=True)
        assert len(runs) == 1
        assert runs[0].resumed is False
        assert provenance.counts_by_kind().get("checkpoint_unreadable", 0) == 1


class TestJournalChaos:
    @pytest.mark.parametrize("torn_at", [0, 1, 17, 48])
    def test_torn_append_at_arbitrary_offsets(self, tmp_path, torn_at):
        path = tmp_path / "prov.db"
        store = DocumentStore(path)
        tracker = ProvenanceTracker(store)
        for i in range(3):
            tracker.record("dataset", {"i": i})
        with StorageFaultInjector(torn_append_at=torn_at, match=".journal"):
            tracker.record("dataset", {"i": "in-flight"})
        recovered = DocumentStore(path)
        stats = recovered.last_recovery
        # Every committed record replays; only the in-flight one is lost.
        assert stats["replayed"] == 3
        assert stats["discarded_records"] <= 1
        kept = ProvenanceTracker(recovered).find("dataset")
        assert [doc["metadata"]["i"] for doc in kept] == [0, 1, 2]

    def test_explicit_recover_after_torn_tail(self, tmp_path):
        path = tmp_path / "prov.db"
        store = DocumentStore(path)
        store.collection("x").insert({"n": 1})
        with StorageFaultInjector(torn_append_at=3, match=".journal"):
            store.collection("x").insert({"n": 2})
        stats = DocumentStore(path).recover()
        assert stats == {
            "replayed": 1, "discarded_records": 1, "discarded_bytes": 3,
        }


class TestServingLoadChaos:
    def test_service_serves_fallback_generation(self, tmp_path):
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        _two_generations(manager, dataset)
        name = "sweep-mlp_16"
        generations = manager.generations_of(name)
        newest = manager._generation_path(name, generations[-1])
        bit_flip_file(newest, seed=11)

        events = []
        manager.on_event = lambda kind, detail: events.append(kind)
        with AnalysisService.from_checkpoint(
            manager, name, workers=1, queue_size=4
        ) as service:
            result = service.analyze(dataset.x[0], deadline_s=30.0)
        assert result.ok
        assert np.isfinite(result.value).all()
        assert events == ["quarantine", "fallback"]

    def test_service_refuses_fully_corrupt_model(self, tmp_path):
        dataset = _dataset()
        manager = CheckpointManager(tmp_path)
        _two_generations(manager, dataset)
        name = "sweep-mlp_16"
        for generation in manager.generations_of(name):
            bit_flip_file(
                manager._generation_path(name, generation), seed=generation
            )
        with pytest.raises(CorruptArtifactError):
            AnalysisService.from_checkpoint(manager, name)
        # Nothing was deleted: every generation is in quarantine.
        assert len(manager.quarantined()) >= 2
