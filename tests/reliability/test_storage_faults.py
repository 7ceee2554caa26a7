"""Unit tests for the storage fault injector's fault classes."""

import os

import pytest

from repro.reliability.storage_faults import (
    StorageFaultInjector,
    bit_flip_file,
    truncate_file,
)
from repro.storage.integrity import (
    CorruptArtifactError,
    SimulatedCrash,
    active_injector,
    atomic_write_bytes,
    read_archive,
    write_archive,
)
from repro.storage.journal import Journal


class TestInstallation:
    def test_context_manager_installs_and_clears(self, tmp_path):
        assert active_injector() is None
        with StorageFaultInjector(torn_write_at=1) as injector:
            assert active_injector() is injector
        assert active_injector() is None

    def test_double_install_rejected(self):
        with StorageFaultInjector():
            with pytest.raises(RuntimeError, match="already installed"):
                with StorageFaultInjector():
                    pass

    def test_times_validation(self):
        with pytest.raises(ValueError):
            StorageFaultInjector(times=0)


class TestTornWrite:
    def test_target_untouched_debris_left(self, tmp_path):
        target = tmp_path / "artifact.bin"
        write_archive(target, {}, {"generation": "previous"})
        with StorageFaultInjector(torn_write_at=10) as injector:
            with pytest.raises(SimulatedCrash):
                write_archive(target, {}, {"generation": "next " * 10})
            assert injector.fault_counts == {"torn_write": 1}
        # The published artifact is the old one, intact and verified.
        assert read_archive(target) == ({}, {"generation": "previous"})
        # kill -9 realism: the torn temp file is left behind as debris.
        debris = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert len(debris) == 1
        assert debris[0].stat().st_size == 10

    def test_crash_absorbed_at_context_exit(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with StorageFaultInjector(torn_write_at=0):
            atomic_write_bytes(target, b"payload")  # crash absorbed by with
        assert not target.exists()

    def test_fires_at_most_times(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with StorageFaultInjector(torn_write_at=0, times=1):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(target, b"one")
            atomic_write_bytes(target, b"two")  # budget spent: goes through
        assert target.read_bytes() == b"two"

    def test_match_filters_paths(self, tmp_path):
        with StorageFaultInjector(torn_write_at=0, match="other"):
            atomic_write_bytes(tmp_path / "artifact.bin", b"x")  # no match
        assert (tmp_path / "artifact.bin").read_bytes() == b"x"


class TestTornAppend:
    def test_partial_record_lands_then_crash(self, tmp_path):
        journal = Journal(tmp_path / "wal")
        journal.append({"n": 1})
        with StorageFaultInjector(torn_append_at=5):
            with pytest.raises(SimulatedCrash):
                journal.append({"n": 2})
        records, stats = journal.replay()
        assert [r["n"] for r in records] == [1]
        assert stats["discarded_bytes"] == 5


class TestBitFlip:
    def test_flip_breaks_checksum(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with StorageFaultInjector(bit_flip=True) as injector:
            write_archive(target, {}, {"payload": "bytes here"})
        assert injector.fault_counts == {"bit_flip": 1}
        with pytest.raises(CorruptArtifactError):
            read_archive(target)

    def test_direct_helper(self, tmp_path):
        target = tmp_path / "artifact.bin"
        write_archive(target, {}, {"payload": "bytes here"})
        bit_flip_file(os.fspath(target), seed=3)
        with pytest.raises(CorruptArtifactError):
            read_archive(target)


class TestLostDurability:
    def test_stale_rename_keeps_previous_version(self, tmp_path):
        target = tmp_path / "artifact.bin"
        write_archive(target, {}, {"generation": "old"})
        with StorageFaultInjector(stale_rename=True) as injector:
            write_archive(target, {}, {"generation": "new"})
        assert injector.fault_counts == {"stale_rename": 1}
        assert read_archive(target) == ({}, {"generation": "old"})
        # The lost write's temp file is not left as debris.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_vanish_removes_published_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with StorageFaultInjector(vanish=True):
            write_archive(target, {}, {"payload": "gone"})
        assert not target.exists()

    def test_skip_fsync_still_atomic(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with StorageFaultInjector(skip_fsync=True) as injector:
            write_archive(target, {}, {"payload": "kept"})
        assert injector.fault_counts == {"skip_fsync": 1}
        assert read_archive(target) == ({}, {"payload": "kept"})


class TestDirectCorruption:
    def test_truncate_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        write_archive(target, {}, {"payload": "bytes"})
        truncate_file(os.fspath(target), 20)
        assert target.stat().st_size == 20
        with pytest.raises(CorruptArtifactError):
            read_archive(target)
