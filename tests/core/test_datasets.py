"""Unit tests for SpectraDataset."""

import numpy as np
import pytest

from repro.core.datasets import SpectraDataset


def _dataset(n=100, length=20, outputs=3, seed=0):
    rng = np.random.default_rng(seed)
    return SpectraDataset(
        rng.random((n, length)),
        rng.dirichlet(np.ones(outputs), size=n),
        tuple(f"c{i}" for i in range(outputs)),
    )


class TestConstruction:
    def test_length_and_shapes(self):
        ds = _dataset()
        assert len(ds) == 100
        assert ds.input_shape == (20,)

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            SpectraDataset(np.zeros((5, 4)), np.zeros((6, 2)), ("a", "b"))

    def test_y_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            SpectraDataset(np.zeros((5, 4)), np.zeros(5), ("a",))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="output names"):
            SpectraDataset(np.zeros((5, 4)), np.zeros((5, 2)), ("a",))

    def test_3d_x_allowed_for_windows(self):
        ds = SpectraDataset(np.zeros((5, 3, 10)), np.zeros((5, 2)), ("a", "b"))
        assert ds.input_shape == (3, 10)


class TestSplit:
    def test_split_sizes_80_20(self):
        train, test = _dataset(100).split_rows(0.8)
        assert len(train) == 80 and len(test) == 20

    def test_split_partitions_without_overlap(self):
        ds = _dataset(50)
        # Tag each sample uniquely via its first feature.
        ds.x[:, 0] = np.arange(50)
        train, test = ds.split_rows(0.8, np.random.default_rng(1))
        seen = np.concatenate([ds.x[train, 0], ds.x[test, 0]])
        assert sorted(seen.tolist()) == list(range(50))

    def test_split_reproducible_with_rng(self):
        ds = _dataset(30)
        a_train, _ = ds.split_rows(0.5, np.random.default_rng(3))
        b_train, _ = ds.split_rows(0.5, np.random.default_rng(3))
        np.testing.assert_array_equal(a_train, b_train)

    def test_split_fraction_validation(self):
        with pytest.raises(ValueError):
            _dataset().split_rows(0.0)
        with pytest.raises(ValueError):
            _dataset().split_rows(1.0)

    def test_split_too_small_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            _dataset(1).split_rows(0.5)

    def test_split_rows_are_splits_permutation(self):
        train_rows, test_rows = _dataset(30).split_rows(0.8, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(30)
        np.testing.assert_array_equal(train_rows, order[:24])
        np.testing.assert_array_equal(test_rows, order[24:])

    def test_split_rows_refuses_an_empty_side(self):
        with pytest.raises(ValueError, match="empty"):
            _dataset(1).split_rows(0.5)
        with pytest.raises(ValueError):
            _dataset().split_rows(1.0)
