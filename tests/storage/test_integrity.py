"""Unit tests for the archive format (checksummed envelope + codec),
quarantine and atomic writes.

Damaged files are written as ``path.write_bytes(wrap(payload))``: ``wrap``
is the in-memory reference framing that ``write_archive`` streams."""

import hashlib
import io
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.compute import ArtifactCache
from repro.compute.cache import get_or_compute_row
from repro.inference import freeze, save_plan
from repro.nn.serialization import model_archive
from repro.storage.integrity import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    CorruptArtifactError,
    SchemaVersionError,
    atomic_write_bytes,
    quarantine,
    read_archive,
    wrap,
    write_archive,
)


def _npz(**entries):
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    return buffer.getvalue()


def _doc(text):
    return np.frombuffer(text, dtype=np.uint8)


_PAYLOAD = _npz(x=np.arange(4.0))


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.env"
        write_archive(path, {"spectra": np.arange(700.0)}, {"meta": {"n": 7}})
        arrays, docs = read_archive(path)
        assert arrays["spectra"].tobytes() == np.arange(700.0).tobytes()
        assert docs == {"meta": {"n": 7}}

    def test_empty_payload_round_trips(self, tmp_path):
        path = tmp_path / "a.env"
        write_archive(path, {}, {})
        assert read_archive(path) == ({}, {})

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.env"
        size = write_archive(path, {"x": np.zeros(1)}, {})
        blob = path.read_bytes()
        assert blob[: len(MAGIC)] == MAGIC
        assert len(blob) == HEADER_SIZE + size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.env"
        path.write_bytes(b"NOTANENV" + wrap(_PAYLOAD)[8:])
        with pytest.raises(CorruptArtifactError, match="magic"):
            read_archive(path)

    def test_short_blob_is_truncation(self, tmp_path):
        path = tmp_path / "a.env"
        path.write_bytes(wrap(_PAYLOAD)[: HEADER_SIZE - 3])
        with pytest.raises(CorruptArtifactError, match="truncated"):
            read_archive(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.env"
        path.write_bytes(wrap(_PAYLOAD)[:-2])
        with pytest.raises(CorruptArtifactError, match="truncated"):
            read_archive(path)

    def test_flipped_payload_bit_fails_checksum(self, tmp_path):
        path = tmp_path / "a.env"
        blob = bytearray(wrap(_PAYLOAD))
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            read_archive(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "a.env"
        path.write_bytes(wrap(_PAYLOAD, version=FORMAT_VERSION + 7))
        with pytest.raises(SchemaVersionError, match="version"):
            read_archive(path)

    def test_error_names_source(self, tmp_path):
        path = tmp_path / "here.bin"
        path.write_bytes(b"")
        with pytest.raises(CorruptArtifactError, match="here.bin"):
            read_archive(path)


class TestEnvelopeFiles:
    def test_write_read_verify(self, tmp_path):
        target = tmp_path / "artifact.bin"
        size = write_archive(target, {"x": np.arange(6)}, {})
        assert size == target.stat().st_size - HEADER_SIZE
        assert read_archive(target)[0]["x"].tolist() == list(range(6))

    def test_corrupt_file_detected(self, tmp_path):
        target = tmp_path / "artifact.bin"
        write_archive(target, {"x": np.arange(6)}, {})
        with open(target, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff")
        with pytest.raises(CorruptArtifactError):
            read_archive(target)


class _Unsaveable:
    """An array-like that dies when ``np.savez`` converts it."""

    def __array__(self, *args, **kwargs):
        raise TypeError("cannot be saved")


class TestAtomicWrite:
    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "file.bin"
        write_archive(target, {}, {"n": 1})
        write_archive(target, {}, {"n": 2})
        assert read_archive(target) == ({}, {"n": 2})
        # No temp debris after a clean write.
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_failure_leaves_previous_content(self, tmp_path):
        target = tmp_path / "file.bin"
        write_archive(target, {}, {"n": 1})

        with pytest.raises(TypeError):
            # The array dies inside the write; the cleanup path must
            # remove the temp file and leave the target untouched.
            write_archive(target, {"x": _Unsaveable()}, {})
        assert read_archive(target) == ({}, {"n": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


class TestPublishedMode:
    """The temp file is created with mode 0666 through the kernel, so the
    umask applies without the process umask ever being changed."""

    @pytest.fixture
    def umask(self, monkeypatch):
        previous = os.umask(0o027)

        def refuse(mask):
            raise AssertionError("publishing must not touch the umask")

        monkeypatch.setattr(os, "umask", refuse)
        yield 0o027
        monkeypatch.undo()
        os.umask(previous)

    def _mode(self, path):
        return stat.S_IMODE(os.stat(path).st_mode)

    def test_atomic_write_bytes(self, tmp_path, umask):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"data", fsync=False)
        assert self._mode(target) == 0o666 & ~umask

    def test_write_archive(self, tmp_path, umask):
        target = tmp_path / "entry.npz.env"
        write_archive(target, {"x": np.zeros(3)}, {"meta": {}}, fsync=False)
        assert self._mode(target) == 0o666 & ~umask


class TestArchive:
    def test_arrays_and_docs_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "w0000": rng.random((3, 4)),
            "opt:m:0:w": rng.random(5).astype(np.float32),
            "op000_qweight": np.arange(-4, 4, dtype=np.int8),
        }
        docs = {
            "meta": {"n": np.int64(3), "f": np.float32(0.5), "v": np.arange(2)},
            "json": {"mae": 0.25, "nan": float("nan")},
        }
        path = tmp_path / "entry.npz.env"
        size = write_archive(path, arrays, docs, fsync=False)
        assert size == path.stat().st_size - HEADER_SIZE
        loaded, loaded_docs = read_archive(path)
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].tobytes() == array.tobytes()
        assert loaded_docs["meta"] == {"n": 3, "f": 0.5, "v": [0, 1]}
        assert loaded_docs["json"]["mae"] == 0.25
        assert np.isnan(loaded_docs["json"]["nan"])

    def test_docs_are_uint8_entries_beside_the_arrays(self, tmp_path):
        path = tmp_path / "a.env"
        write_archive(path, {"x": np.zeros(2)}, {"meta": {"b": 1, "a": 2}})
        with np.load(io.BytesIO(path.read_bytes()[HEADER_SIZE:])) as archive:
            assert sorted(archive.files) == ["__meta__", "x"]
            assert archive["__meta__"].dtype == np.uint8
            assert archive["__meta__"].tobytes() == b'{"a": 2, "b": 1}'

    @pytest.mark.parametrize("name", ["__meta__", "__json__", "__x__"])
    def test_doc_shaped_array_names_refused(self, tmp_path, name):
        with pytest.raises(ValueError, match="reserved"):
            write_archive(tmp_path / "a.env", {name: np.zeros(2)}, {})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "payload",
        [
            b"not a zip at all",
            _npz(x=np.arange(64.0))[:120],
            _npz(x=np.arange(4.0))[22:],
            b"\x93NUMPY" + b"\x00" * 40,
            _npz(x=np.array([{"a": 1}], dtype=object)),
            _npz(__meta__=_doc(b'{"unterminated": ')),
            _npz(__meta__=_doc(b"\xff\xfe")),
        ],
        ids=["garbage", "truncated_zip", "headless_zip", "npy_header",
             "pickled", "bad_json", "bad_utf8"],
    )
    def test_damaged_payload_is_typed(self, tmp_path, payload):
        path = tmp_path / "a.env"
        path.write_bytes(wrap(payload))
        with pytest.raises(CorruptArtifactError, match="a.env"):
            read_archive(path)

    def test_envelope_damage_is_typed(self, tmp_path):
        path = tmp_path / "a.env"
        write_archive(path, {"x": np.zeros(8)}, {"meta": {}})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            read_archive(path)
        path.write_bytes(wrap(_npz(x=np.zeros(2)), version=FORMAT_VERSION + 1))
        with pytest.raises(SchemaVersionError):
            read_archive(path)


def _reference_bytes(arrays, docs):
    """What ``write_archive`` wrote when it built the payload in memory:
    ``wrap`` over an ``np.savez`` into a ``BytesIO``."""
    entries = {
        f"__{name}__": _doc(json.dumps(doc, sort_keys=True).encode("utf-8"))
        for name, doc in docs.items()
    }
    entries.update(arrays)
    return wrap(_npz(**entries))


def _small_model():
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(2, 3, activation="relu"),
            nn.Flatten(),
            nn.Dense(2, activation="softmax"),
        ]
    )
    model.build((12,), seed=0)
    return model


class TestStreamedFormat:
    """Streaming through the file must not move a byte of the format."""

    def test_dataset_entry(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"x": rng.random((50, 30)), "y": rng.random((50, 3))}
        docs = {"meta": {"kind": "ms", "n": 50, "seed": 0}}
        path = tmp_path / "ds.npz"
        write_archive(path, arrays, docs)
        assert path.read_bytes() == _reference_bytes(arrays, docs)

    def test_model_file(self, tmp_path):
        model = _small_model()
        path = nn.save_model(model, tmp_path / "model.npz")
        arrays, docs = model_archive(model)
        assert open(path, "rb").read() == _reference_bytes(arrays, docs)

    @pytest.mark.parametrize("dtype", ["float32", "int8"])
    def test_plan_file(self, tmp_path, dtype):
        path = tmp_path / "model.plan"
        save_plan(freeze(_small_model(), dtype=dtype), path)
        arrays, docs = read_archive(path)
        assert path.read_bytes() == _reference_bytes(arrays, docs)

    def test_json_cell_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = get_or_compute_row(cache, {"cell": 1}, lambda: {"mae": 0.125, "n": 4})
        path = cache.path_for(payload.pop("cache_key"))
        payload.pop("cache_hit")
        arrays, docs = read_archive(path)
        assert arrays == {} and docs["json"] == payload
        assert path.read_bytes() == _reference_bytes({}, docs)

    def test_zero_size_array(self, tmp_path):
        arrays = {"empty": np.zeros((0, 7)), "x": np.ones(0, dtype=np.int8)}
        path = tmp_path / "a.env"
        assert write_archive(path, arrays, {}) == (
            path.stat().st_size - HEADER_SIZE
        )
        assert path.read_bytes() == _reference_bytes(arrays, {})
        loaded, _ = read_archive(path)
        assert loaded["empty"].shape == (0, 7)

    def test_pinned_digest(self, tmp_path):
        path = tmp_path / "pin.env"
        write_archive(
            path,
            {
                "x": np.arange(12.0).reshape(3, 4),
                "labels": np.array([0, 2, 1], dtype=np.int32),
                "empty": np.zeros((0, 5)),
            },
            {"meta": {"name": "pin", "n": 3}},
            fsync=False,
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b895e57691e585985c352d9d79def8b0c6f447e8cdfab778487a8d8e5cc9df33"
        )


class TestArchiveMemory:
    """Neither direction holds a second copy of the payload: the traced
    peak stays near one array (it was 2.00x to write, 2.07x to read)."""

    LIMIT = 1.25

    @pytest.fixture
    def x(self):
        return np.random.default_rng(0).random((4000, 246))

    def _peak(self, call):
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_write_peak(self, tmp_path, x):
        path = tmp_path / "ds.npz"
        _, peak = self._peak(
            lambda: write_archive(path, {"x": x}, {"meta": {}}, fsync=False)
        )
        assert peak <= self.LIMIT * x.nbytes

    def test_read_peak(self, tmp_path, x):
        path = tmp_path / "ds.npz"
        write_archive(path, {"x": x}, {"meta": {}}, fsync=False)
        (arrays, _), peak = self._peak(lambda: read_archive(path))
        assert arrays["x"].tobytes() == x.tobytes()
        assert peak <= self.LIMIT * x.nbytes


class TestQuarantine:
    def test_collisions_get_suffixes_and_nothing_is_overwritten(self, tmp_path):
        holding = tmp_path / "quarantine"
        moved = []
        for round_ in range(3):
            victim = tmp_path / "entry.env"
            victim.write_bytes(f"copy {round_}".encode())
            moved.append(quarantine(victim, holding))
            assert not victim.exists()
        assert [os.path.basename(p) for p in moved] == [
            "entry.env", "entry.env.1", "entry.env.2",
        ]
        assert [open(p, "rb").read() for p in moved] == [
            b"copy 0", b"copy 1", b"copy 2",
        ]

    def test_vanished_file_returns_none(self, tmp_path):
        assert quarantine(tmp_path / "gone.env", tmp_path / "q") is None
