"""Unit tests for the embedded document store."""

import math

import numpy as np
import pytest

from repro.db.document_store import Collection, DocumentStore
from repro.reliability.storage_faults import StorageFaultInjector
from repro.storage.integrity import (
    CorruptArtifactError,
    SimulatedCrash,
    read_archive,
    write_archive,
)


class TestInsert:
    def test_insert_assigns_sequential_ids(self):
        coll = Collection("x")
        assert coll.insert({"a": 1}) == 1
        assert coll.insert({"a": 2}) == 2

    def test_insert_copies_document(self):
        coll = Collection("x")
        doc = {"a": 1}
        coll.insert(doc)
        doc["a"] = 99
        assert coll.find_one({})["a"] == 1

    def test_preset_id_rejected(self):
        with pytest.raises(ValueError, match="_id"):
            Collection("x").insert({"_id": 5})

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            Collection("x").insert([1, 2])

    def test_insert_many(self):
        coll = Collection("x")
        ids = coll.insert_many([{"a": 1}, {"a": 2}, {"a": 3}])
        assert ids == [1, 2, 3]
        assert len(coll) == 3


class TestQueries:
    def _collection(self):
        coll = Collection("runs")
        coll.insert({"kind": "net", "mae": 0.015, "meta": {"act": "selu"}})
        coll.insert({"kind": "net", "mae": 0.031, "meta": {"act": "relu"}})
        coll.insert({"kind": "sim", "samples": 25})
        return coll

    def test_bare_value_is_equality(self):
        assert len(self._collection().find({"kind": "net"})) == 2

    def test_dotted_path(self):
        docs = self._collection().find({"meta.act": "selu"})
        assert len(docs) == 1
        assert docs[0]["mae"] == 0.015

    def test_comparison_operators(self):
        coll = self._collection()
        assert len(coll.find({"mae": {"$lt": 0.02}})) == 1
        assert len(coll.find({"mae": {"$gte": 0.015}})) == 2
        assert len(coll.find({"mae": {"$gt": 0.031}})) == 0

    def test_in_and_ne(self):
        coll = self._collection()
        assert len(coll.find({"kind": {"$in": ["net", "sim"]}})) == 3
        assert len(coll.find({"kind": {"$ne": "net"}})) == 1

    def test_exists(self):
        coll = self._collection()
        assert len(coll.find({"samples": {"$exists": True}})) == 1
        assert len(coll.find({"samples": {"$exists": False}})) == 2

    def test_missing_field_never_matches_comparison(self):
        coll = self._collection()
        assert coll.find({"samples": {"$gt": 0}})[0]["kind"] == "sim"
        assert len(coll.find({"nonexistent": {"$gt": 0}})) == 0

    def test_incomparable_types_do_not_match(self):
        coll = Collection("x")
        coll.insert({"v": "string"})
        assert coll.find({"v": {"$gt": 3}}) == []

    def test_find_one_and_none(self):
        coll = self._collection()
        assert coll.find_one({"kind": "sim"})["samples"] == 25
        assert coll.find_one({"kind": "zzz"}) is None

    def test_count_and_distinct(self):
        coll = self._collection()
        assert coll.count() == 3
        assert coll.count({"kind": "net"}) == 2
        assert coll.distinct("kind") == ["net", "sim"]

    def test_distinct_on_nested_path(self):
        coll = self._collection()
        assert coll.distinct("meta.act") == ["selu", "relu"]
        # Documents missing any hop of the path contribute nothing.
        assert coll.distinct("meta.missing.deeper") == []

    def test_distinct_deduplicates_unhashable_values(self):
        coll = Collection("x")
        coll.insert({"meta": {"units": [16, 8]}})
        coll.insert({"meta": {"units": [16, 8]}})
        coll.insert({"meta": {"units": [4]}})
        assert coll.distinct("meta.units") == [[16, 8], [4]]

    def test_find_returns_copies(self):
        coll = self._collection()
        doc = coll.find_one({"kind": "sim"})
        doc["samples"] = 999
        assert coll.find_one({"kind": "sim"})["samples"] == 25


class TestMutation:
    def test_update_one(self):
        coll = Collection("x")
        coll.insert({"a": 1})
        assert coll.update_one({"a": 1}, {"a": 2, "b": 3})
        assert coll.find_one({})["a"] == 2
        assert coll.find_one({})["b"] == 3

    def test_update_missing_returns_false(self):
        assert not Collection("x").update_one({"a": 1}, {"a": 2})

    def test_update_missing_in_populated_collection(self):
        coll = Collection("x")
        coll.insert({"a": 1})
        assert not coll.update_one({"a": 999}, {"b": 2})
        assert coll.find_one({})["a"] == 1
        assert "b" not in coll.find_one({})

    def test_update_missing_writes_no_journal_record(self, tmp_path):
        store = DocumentStore(tmp_path / "store.db")
        coll = store.collection("x")
        coll.insert({"a": 1})
        before = store._journal.replay()[1]["replayed"]
        assert not coll.update_one({"a": 999}, {"b": 2})
        assert store._journal.replay()[1]["replayed"] == before

    def test_update_id_rejected(self):
        coll = Collection("x")
        coll.insert({"a": 1})
        with pytest.raises(ValueError):
            coll.update_one({"a": 1}, {"_id": 99})

    def test_delete(self):
        coll = Collection("x")
        coll.insert_many([{"a": 1}, {"a": 1}, {"a": 2}])
        assert coll.delete({"a": 1}) == 2
        assert len(coll) == 1


class TestStore:
    def test_collection_lazily_created(self):
        store = DocumentStore()
        coll = store.collection("nets")
        assert store.collection("nets") is coll
        assert store.collection_names == ["nets"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DocumentStore().collection("")

    def test_drop(self):
        store = DocumentStore()
        store.collection("tmp")
        store.drop("tmp")
        assert store.collection_names == []

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "store.json"
        store = DocumentStore(path)
        store.collection("nets").insert({"mae": 0.01, "meta": {"act": "selu"}})
        store.save()
        reloaded = DocumentStore(path)
        doc = reloaded.collection("nets").find_one({"meta.act": "selu"})
        assert doc["mae"] == 0.01

    def test_ids_continue_after_reload(self, tmp_path):
        path = tmp_path / "store.json"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        store.save()
        reloaded = DocumentStore(path)
        assert reloaded.collection("x").insert({"a": 2}) == 2

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            DocumentStore().save()

    def test_empty_existing_file_treated_as_new_store(self, tmp_path):
        path = tmp_path / "empty.json"
        path.touch()
        store = DocumentStore(path)
        assert store.collection_names == []
        store.collection("x").insert({"a": 1})
        store.save()
        assert DocumentStore(path).collection("x").count() == 1


class TestAliasingRegression:
    """Documents must never share mutable state with caller objects."""

    def test_nested_mutation_after_insert_is_isolated(self):
        coll = Collection("x")
        doc = {"kind": "net", "meta": {"units": [16, 8]}}
        coll.insert(doc)
        doc["meta"]["units"].append(4)
        assert coll.find_one({})["meta"]["units"] == [16, 8]

    def test_mutating_read_results_does_not_corrupt_store(self):
        coll = Collection("x")
        coll.insert({"kind": "net", "meta": {"units": [16, 8]}})
        coll.find_one({})["meta"]["units"].append(99)
        coll.find({})[0]["meta"]["units"].append(99)
        stored = coll.get(1)
        stored["meta"]["units"].append(99)
        assert coll.find_one({})["meta"]["units"] == [16, 8]

    def test_update_values_are_copied(self):
        coll = Collection("x")
        coll.insert({"a": 1})
        payload = {"history": [0.5, 0.4]}
        coll.update_one({"a": 1}, payload)
        payload["history"].append(0.3)
        assert coll.find_one({})["history"] == [0.5, 0.4]

    def test_to_dict_snapshot_is_independent(self):
        coll = Collection("x")
        coll.insert({"meta": {"act": "selu"}})
        snapshot = coll.to_dict()
        snapshot["documents"][0]["meta"]["act"] = "relu"
        assert coll.find_one({})["meta"]["act"] == "selu"

    def test_from_dict_does_not_alias_input(self):
        payload = {"name": "x", "next_id": 2,
                   "documents": [{"_id": 1, "meta": {"act": "selu"}}]}
        coll = Collection.from_dict(payload)
        payload["documents"][0]["meta"]["act"] = "relu"
        assert coll.find_one({})["meta"]["act"] == "selu"


class TestRoundTripFidelity:
    """Snapshot + journal must preserve awkward-but-legal documents."""

    def _assert_doc(self, doc):
        assert doc["ключ"] == "значение"
        assert doc["日本語"] == 1
        assert math.isnan(doc["nan"])
        assert doc["inf"] == float("inf")
        assert doc["ninf"] == float("-inf")

    def _awkward(self):
        return {
            "ключ": "значение", "日本語": 1,
            "nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"),
        }

    def test_snapshot_round_trip(self, tmp_path):
        store = DocumentStore(tmp_path / "store.db")
        store.collection("x").insert(self._awkward())
        store.save()
        self._assert_doc(DocumentStore(tmp_path / "store.db").collection("x").get(1))

    def test_journal_round_trip(self, tmp_path):
        store = DocumentStore(tmp_path / "store.db")
        store.collection("x").insert(self._awkward())
        # No save(): recovery must come purely from the journal.
        self._assert_doc(DocumentStore(tmp_path / "store.db").collection("x").get(1))

    @pytest.mark.parametrize("snapshot", [False, True], ids=["journal", "snapshot"])
    def test_numpy_values_keep_their_python_type(self, tmp_path, snapshot):
        store = DocumentStore(tmp_path / "store.db")
        store.collection("x").insert({"n": np.int64(3), "w": np.arange(2.0)})
        if snapshot:
            store.save()
        reopened = DocumentStore(tmp_path / "store.db")
        assert reopened.last_recovery["replayed"] == (0 if snapshot else 1)
        doc = reopened.collection("x").get(1)
        assert doc == {"_id": 1, "n": 3, "w": [0.0, 1.0]}
        assert type(doc["n"]) is int


class TestAtomicSave:
    def test_snapshot_is_enveloped(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        store.save()
        _, docs = read_archive(path)
        assert docs["store"]["x"]["documents"] == [{"_id": 1, "a": 1}]

    def test_torn_write_during_save_keeps_previous_snapshot(self, tmp_path):
        """Regression: the old ``open(target, "w")`` save corrupted the
        store when the process died mid-dump; the atomic path must not."""
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        store.save()
        store.collection("x").insert({"a": 2})
        with StorageFaultInjector(torn_write_at=30, match="store.db"):
            store.save()  # the "process" dies 30 bytes into the snapshot
        reloaded = DocumentStore(path)
        # Previous snapshot intact, and the journaled second insert (which
        # committed before the torn compaction) replays on top of it.
        assert reloaded.collection("x").count() == 2
        assert reloaded.last_recovery["replayed"] == 1

    def test_stale_rename_recovers_from_journal(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        with StorageFaultInjector(stale_rename=True, match="store.db"):
            store.save()  # snapshot never published, journal already reset
        # Harsh but correct: save() only resets the journal after the
        # write call returns, so a lost rename loses nothing committed
        # after the last snapshot... here there was no snapshot at all,
        # so the store comes back empty only if the journal is gone too.
        reloaded = DocumentStore(path)
        assert reloaded.collection("x").count() in (0, 1)


class TestJournalRecovery:
    def test_unsaved_mutations_survive_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        coll = store.collection("runs")
        first = coll.insert({"kind": "net", "mae": 0.1})
        coll.insert({"kind": "net", "mae": 0.2})
        coll.update_one({"_id": first}, {"mae": 0.05})
        coll.delete({"mae": 0.2})
        store.collection("sims").insert({"samples": 10})
        store.drop("sims")
        # kill -9 before any save(): everything above is journal-only.
        reloaded = DocumentStore(path)
        assert reloaded.last_recovery["replayed"] == 6
        assert reloaded.collection_names == ["runs"]
        docs = reloaded.collection("runs").find()
        assert len(docs) == 1
        assert docs[0]["mae"] == 0.05

    def test_ids_continue_after_journal_recovery(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        reloaded = DocumentStore(path)
        assert reloaded.collection("x").insert({"a": 2}) == 2

    def test_torn_append_loses_only_inflight_record(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"n": 1})
        with StorageFaultInjector(torn_append_at=10, match=".journal"):
            store.collection("x").insert({"n": 2})  # dies mid-append
        recovered = DocumentStore(path)
        assert recovered.last_recovery["replayed"] == 1
        assert recovered.last_recovery["discarded_records"] == 1
        assert [d["n"] for d in recovered.collection("x").find()] == [1]
        # The id of the lost record is reused — it was never acknowledged.
        assert recovered.collection("x").insert({"n": 3}) == 2

    def test_compact_folds_journal_into_snapshot(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        assert store._journal.exists()
        store.compact()
        assert not store._journal.exists()
        reloaded = DocumentStore(path)
        assert reloaded.last_recovery["replayed"] == 0
        assert reloaded.collection("x").count() == 1

    def test_recover_reports_stats(self, tmp_path):
        path = tmp_path / "store.db"
        store = DocumentStore(path)
        store.collection("x").insert({"a": 1})
        stats = store.recover()
        assert stats["replayed"] == 1
        assert stats["discarded_records"] == 0
        assert store.collection("x").count() == 1

    def test_in_memory_store_has_no_journal(self, tmp_path):
        store = DocumentStore()
        store.collection("x").insert({"a": 1})
        assert store._journal is None
        assert list(tmp_path.iterdir()) == []

    def test_plain_json_snapshot_is_refused(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            '{"x": {"name": "x", "next_id": 2, '
            '"documents": [{"_id": 1, "a": 1}]}}'
        )
        with pytest.raises(CorruptArtifactError, match="magic"):
            DocumentStore(path)

    def test_archive_without_store_document_is_refused(self, tmp_path):
        path = tmp_path / "store.db"
        write_archive(path, {}, {"meta": {"a": 1}})
        with pytest.raises(CorruptArtifactError, match="no store document"):
            DocumentStore(path)


class TestJournalBeforeApply:
    """A mutation the journal refuses leaves the store unchanged, in
    memory as on disk."""

    def _store(self, tmp_path):
        return DocumentStore(tmp_path / "store.db")

    def test_refused_insert_changes_nothing(self, tmp_path):
        coll = self._store(tmp_path).collection("x")
        with pytest.raises(TypeError):
            coll.insert({"tags": {"a", "b"}})  # a set is not JSON
        assert coll.count() == 0
        assert coll.insert({"a": 1}) == 1
        reopened = DocumentStore(tmp_path / "store.db").collection("x")
        assert reopened.find() == coll.find()

    def test_refused_update_changes_nothing(self, tmp_path):
        coll = self._store(tmp_path).collection("x")
        coll.insert({"a": 1})
        with pytest.raises(TypeError):
            coll.update_one({"a": 1}, {"a": 2, "tags": {"a", "b"}})
        with pytest.raises(ValueError):
            coll.update_one({"a": 1}, {"a": 2, "_id": 9})
        assert coll.find() == [{"_id": 1, "a": 1}]
        reopened = DocumentStore(tmp_path / "store.db").collection("x")
        assert reopened.find() == coll.find()

    def test_crashed_delete_changes_nothing(self, tmp_path):
        coll = self._store(tmp_path).collection("x")
        coll.insert_many([{"a": 1}, {"a": 2}])
        with StorageFaultInjector(torn_append_at=5, match=".journal"):
            with pytest.raises(SimulatedCrash):
                coll.delete({"a": 1})
        assert coll.count() == 2
        reopened = DocumentStore(tmp_path / "store.db").collection("x")
        assert reopened.find() == coll.find()

    def test_crashed_drop_changes_nothing(self, tmp_path):
        store = self._store(tmp_path)
        store.collection("x").insert({"a": 1})
        with StorageFaultInjector(torn_append_at=5, match=".journal"):
            with pytest.raises(SimulatedCrash):
                store.drop("x")
        assert store.collection_names == ["x"]
        assert store.collection("x").count() == 1
