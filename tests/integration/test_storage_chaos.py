"""Storage-fault chaos: durable state survives kills and corruption.

The acceptance contract for the durable-state layer: kill/corrupt
injected at arbitrary points during a training sweep's cache write and a
journal append never loses more than the in-flight record —
``TrainingService`` reuses only the cache entries that verify and
retrains the rest to the same bytes, ``DocumentStore.recover()`` replays
every committed write, corrupted files are quarantined (never deleted),
and the quarantine is visible in provenance.
"""

import os

import numpy as np
import pytest

from repro.compute import ArtifactCache
from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.db.document_store import DocumentStore
from repro.db.provenance import ProvenanceTracker
from repro.reliability.storage_faults import (
    StorageFaultInjector,
    bit_flip_file,
)
from repro.storage.integrity import (
    HEADER_SIZE,
    CorruptArtifactError,
    read_archive,
)


def _dataset(n=120, length=12, outputs=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, length))
    y = x @ rng.random((length, outputs))
    y = y / y.sum(axis=1, keepdims=True)
    return SpectraDataset(x, y, tuple(f"c{i}" for i in range(outputs)))


def _config(epochs=3):
    return TrainingConfig(epochs=epochs, batch_size=32, patience=None)


SPEC = [mlp_topology(3, hidden_units=(16,))]


class TestCheckpointSaveChaos:
    @pytest.mark.parametrize(
        "torn_at", [0, HEADER_SIZE - 1, HEADER_SIZE, 60, 500, 4000]
    )
    def test_kill_mid_checkpoint_save_resumes_from_verified(
        self, tmp_path, torn_at
    ):
        """Tear the finished topology's cache write at arbitrary byte
        offsets; the re-run must train it again, to the clean result."""
        dataset = _dataset()
        cache = ArtifactCache(tmp_path)
        service = TrainingService(_config(), cache=cache)
        injector = StorageFaultInjector(torn_write_at=torn_at, match=".npz.env")
        with injector:
            try:
                service.train_all(SPEC, dataset)
            except BaseException:
                pass  # the "process" died mid-write somewhere in the sweep
        assert [event.kind for event in injector.events] == ["torn_write"]
        assert cache.stats()["entries"] == 0
        # Restart: whatever landed on disk must either verify or be
        # quarantined and retrained — never crash the resume.
        runs = TrainingService(_config(), cache=cache).train_all(SPEC, dataset)
        assert len(runs) == 1
        clean = TrainingService(_config()).train_all(SPEC, dataset)
        assert runs[0].metrics == clean[0].metrics

    def test_bit_flipped_entry_is_quarantined_and_retrained(self, tmp_path):
        dataset = _dataset()
        cache = ArtifactCache(tmp_path)
        first = TrainingService(_config(), cache=cache).train_all(SPEC, dataset)
        (entry,) = tmp_path.glob("*.npz.env")
        bit_flip_file(entry, seed=7)

        provenance = ProvenanceTracker()
        runs = TrainingService(
            _config(), provenance=provenance, cache=cache
        ).train_all(SPEC, dataset)
        assert len(runs) == 1
        assert runs[0].resumed is False
        # The quarantine is visible in provenance...
        (event,) = provenance.find(kind="quarantine")
        assert event["metadata"]["topology"] == "mlp_16"
        assert "resume" not in provenance.counts_by_kind()
        # ...the corrupt file was preserved in quarantine, not deleted...
        assert os.listdir(tmp_path / "quarantine") == [entry.name]
        # ...and the retrain reproduced the lost result bit for bit.
        assert runs[0].metrics == first[0].metrics
        for got, want in zip(
            runs[0].model.get_weights(), first[0].model.get_weights()
        ):
            assert got.tobytes() == want.tobytes()
        # The retrained entry replaced the corrupt one and verifies.
        again = TrainingService(_config(), cache=cache).train_all(SPEC, dataset)
        assert again[0].resumed is True


class TestStreamedArchiveTears:
    """``write_archive`` writes its envelope header last, after streaming
    the payload and re-reading it for the digest.  A tear anywhere in the
    file must still leave the previous version readable and the debris
    typed-corrupt."""

    ROWS, COLS = 400, 400  # a 1.28 MB float64 array

    @pytest.mark.parametrize(
        "torn_at",
        [HEADER_SIZE - 1, HEADER_SIZE, HEADER_SIZE + 700_000],
        ids=["inside_header", "header_end", "inside_array"],
    )
    def test_tear_keeps_previous_version(self, tmp_path, torn_at):
        rng = np.random.default_rng(0)
        old = rng.random((self.ROWS, self.COLS))
        new = rng.random((self.ROWS, self.COLS))
        cache = ArtifactCache(tmp_path, fsync=False)
        path = cache.put("entry", {"x": old}, {"generation": 1})
        size = path.stat().st_size
        assert size >= 1_000_000
        # The last offset lands in the array data, not in a zip header.
        assert torn_at < size - 1_000

        with StorageFaultInjector(torn_write_at=torn_at) as injector:
            cache.put("entry", {"x": new}, {"generation": 2})
        assert injector.events[0].detail == {
            "offset": torn_at, "dropped": size - torn_at,
        }

        arrays, meta = cache.get("entry")
        assert meta == {"generation": 1}
        assert arrays["x"].tobytes() == old.tobytes()
        (debris,) = tmp_path.glob(".tmp-*")
        assert debris.stat().st_size == torn_at
        with pytest.raises(CorruptArtifactError):
            read_archive(debris)


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
