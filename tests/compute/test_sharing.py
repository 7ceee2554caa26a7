"""Unit tests for the shared-memory dataset handoff."""

import numpy as np
import pytest

from repro.compute import (
    ParallelExecutor,
    SharedArrayRef,
    resolve_refs,
    share_array,
    share_arrays,
)


def _sum_shared(payload):
    """Executor task: sum the resolved shared array (module-level)."""
    return float(np.sum(payload["data"])) + payload["offset"]


class TestPublish:
    def test_round_trip_is_byte_exact(self, tmp_path):
        array = np.random.default_rng(0).normal(size=(16, 9))
        ref = share_array(array, tmp_path)
        resolved = resolve_refs(ref)
        np.testing.assert_array_equal(np.asarray(resolved), array)
        assert resolved.dtype == array.dtype

    def test_publish_is_idempotent_and_content_addressed(self, tmp_path):
        array = np.arange(12.0).reshape(3, 4)
        first = share_array(array, tmp_path)
        second = share_array(array.copy(), tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("*.npy"))) == 1
        different = share_array(array + 1.0, tmp_path)
        assert different.path != first.path

    def test_handle_records_layout(self, tmp_path):
        ref = share_array(np.zeros((4, 7), dtype=np.float32), tmp_path)
        assert ref.dtype == "float32"
        assert ref.shape == (4, 7)
        assert ref.nbytes == 4 * 7 * 4

    def test_layout_mismatch_fails_loudly(self, tmp_path):
        ref = share_array(np.zeros(8), tmp_path)
        lying = SharedArrayRef(path=ref.path, dtype="float64", shape=(9,))
        with pytest.raises(ValueError, match="handle expects"):
            resolve_refs(lying)

    def test_resolved_map_is_read_only(self, tmp_path):
        ref = share_array(np.zeros(4), tmp_path)
        resolved = resolve_refs(ref)
        with pytest.raises((ValueError, RuntimeError)):
            resolved[0] = 1.0


class TestResolveRefs:
    def test_walks_nested_containers(self, tmp_path):
        ref = share_array(np.ones(3), tmp_path)
        payload = {"a": [ref, 2], "b": (ref,), "c": "untouched"}
        resolved = resolve_refs(payload)
        np.testing.assert_array_equal(np.asarray(resolved["a"][0]), np.ones(3))
        assert isinstance(resolved["b"], tuple)
        assert resolved["c"] == "untouched"

    def test_plain_payload_passes_through(self):
        payload = {"x": 1, "y": [2, 3]}
        assert resolve_refs(payload) == payload


class TestScatter:
    def test_serial_and_thread_scatter_is_passthrough(self):
        array = np.arange(6.0)
        for backend in ("serial", "thread"):
            with ParallelExecutor(backend=backend) as executor:
                handles = executor.scatter({"data": array})
                np.testing.assert_array_equal(handles["data"], array)

    def test_process_scatter_returns_handles(self):
        array = np.arange(6.0)
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            handles = executor.scatter({"data": array})
            assert isinstance(handles["data"], SharedArrayRef)

    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_scattered_sweep_matches_across_backends(self, backend):
        array = np.random.default_rng(5).normal(size=(32, 8))
        expected = [float(np.sum(array)) + offset for offset in range(4)]
        with ParallelExecutor(backend=backend, max_workers=2) as executor:
            handles = executor.scatter({"data": array})
            payloads = [
                {"offset": offset, **handles} for offset in range(4)
            ]
            results = executor.map_tasks(_sum_shared, payloads)
        assert results == expected

    def test_close_removes_scatter_scratch(self):
        import os

        executor = ParallelExecutor(backend="process", max_workers=2)
        handles = executor.scatter({"data": np.arange(4.0)})
        path = handles["data"].path
        assert os.path.exists(path)
        executor.close()
        assert not os.path.exists(path)


class TestShareArrays:
    def test_named_set(self, tmp_path):
        refs = share_arrays(
            {"x": np.zeros(3), "y": np.ones((2, 2))}, tmp_path
        )
        assert set(refs) == {"x", "y"}
        np.testing.assert_array_equal(
            np.asarray(resolve_refs(refs["y"])), np.ones((2, 2))
        )
