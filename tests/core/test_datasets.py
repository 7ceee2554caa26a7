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
        train, test = _dataset(100).split(0.8)
        assert len(train) == 80 and len(test) == 20

    def test_split_partitions_without_overlap(self):
        ds = _dataset(50)
        # Tag each sample uniquely via its first feature.
        ds.x[:, 0] = np.arange(50)
        train, test = ds.split(0.8, np.random.default_rng(1))
        seen = np.concatenate([train.x[:, 0], test.x[:, 0]])
        assert sorted(seen.tolist()) == list(range(50))

    def test_split_reproducible_with_rng(self):
        ds = _dataset(30)
        a_train, _ = ds.split(0.5, np.random.default_rng(3))
        b_train, _ = ds.split(0.5, np.random.default_rng(3))
        np.testing.assert_array_equal(a_train.x, b_train.x)

    def test_split_is_one_shuffled_copy(self):
        ds = _dataset(30)
        train, test = ds.split(0.8, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(30)
        np.testing.assert_array_equal(train.x, ds.x[order[:24]])
        np.testing.assert_array_equal(test.y, ds.y[order[24:]])
        assert np.shares_memory(train.x.base, test.x)
        assert not np.shares_memory(train.x, ds.x)

    def test_split_fraction_validation(self):
        with pytest.raises(ValueError):
            _dataset().split(0.0)
        with pytest.raises(ValueError):
            _dataset().split(1.0)

    def test_split_too_small_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            _dataset(1).split(0.5)

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

    def test_subset_metadata_label(self):
        train, test = _dataset().split(0.8)
        assert train.metadata["subset"] == "train"
        assert test.metadata["subset"] == "test"


class TestSubsetValidation:
    def test_basic_selection(self):
        ds = _dataset(10)
        sub = ds.subset([1, 3, 5], "picked")
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.x[0], ds.x[1])
        assert sub.metadata["subset"] == "picked"

    def test_negative_indices_normalized(self):
        ds = _dataset(10)
        sub = ds.subset([-1, -10, 0])
        np.testing.assert_array_equal(sub.x[0], ds.x[9])
        np.testing.assert_array_equal(sub.x[1], ds.x[0])
        np.testing.assert_array_equal(sub.x[2], ds.x[0])

    def test_out_of_range_raises(self):
        ds = _dataset(10)
        with pytest.raises(IndexError, match=r"\[10\].*10 samples"):
            ds.subset([0, 10])
        with pytest.raises(IndexError, match=r"-11"):
            ds.subset([-11])

    def test_error_names_at_most_five_offenders(self):
        ds = _dataset(3)
        with pytest.raises(IndexError) as excinfo:
            ds.subset([10, 11, 12, 13, 14, 15, 16])
        message = str(excinfo.value)
        assert "[10, 11, 12, 13, 14]" in message
        assert "15" not in message

    def test_boolean_mask(self):
        ds = _dataset(6)
        mask = np.array([True, False, True, False, False, True])
        sub = ds.subset(mask)
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.x[1], ds.x[2])

    def test_boolean_mask_wrong_length(self):
        ds = _dataset(6)
        with pytest.raises(IndexError, match="boolean mask"):
            ds.subset(np.array([True, False]))

    def test_float_indices_rejected(self):
        ds = _dataset(6)
        with pytest.raises(IndexError, match="dtype"):
            ds.subset(np.array([0.0, 1.5]))

    def test_multidim_indices_rejected(self):
        ds = _dataset(6)
        with pytest.raises(IndexError, match="1-D"):
            ds.subset(np.array([[0, 1], [2, 3]]))

    def test_empty_selection(self):
        ds = _dataset(6)
        sub = ds.subset([])
        assert len(sub) == 0

    def test_caller_array_not_mutated(self):
        ds = _dataset(10)
        indices = np.array([-1, -2])
        ds.subset(indices)
        np.testing.assert_array_equal(indices, [-1, -2])


class TestAccessors:
    def test_labels_as_dicts(self):
        ds = _dataset(3, outputs=2)
        dicts = ds.labels_as_dicts()
        assert len(dicts) == 3
        assert set(dicts[0]) == {"c0", "c1"}
        assert dicts[1]["c0"] == pytest.approx(ds.y[1, 0])

    def test_label_ranges(self):
        ds = _dataset()
        for j, (name, (low, high)) in enumerate(sorted(ds.label_ranges().items())):
            assert low == ds.y[:, j].min()
            assert high == ds.y[:, j].max()
