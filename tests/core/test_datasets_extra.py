"""Additional SpectraDataset coverage: windowed datasets and split statistics."""

import numpy as np
import pytest

from repro.core.augmentation import plateau_time_series, sliding_windows
from repro.core.datasets import SpectraDataset


class TestWindowedDatasets:
    def test_windowed_data_roundtrips_through_dataset(self):
        rng = np.random.default_rng(0)
        x_pool = rng.random((30, 16))
        y_pool = rng.random((30, 2))
        x_seq, y_seq = plateau_time_series(x_pool, y_pool, 100, rng)
        x_windows, y_windows = sliding_windows(x_seq, y_seq, 5)
        dataset = SpectraDataset(x_windows, y_windows, ("a", "b"))
        assert dataset.input_shape == (5, 16)
        train, test = dataset.split_rows(0.75, rng)
        assert dataset.x[train].shape[1:] == (5, 16)
        assert len(train) + len(test) == len(dataset)


class TestSplitStatistics:
    def test_split_fractions_respected_over_sizes(self):
        rng = np.random.default_rng(2)
        for n, fraction in ((10, 0.5), (33, 0.8), (101, 0.9)):
            dataset = SpectraDataset(
                rng.random((n, 3)), rng.random((n, 2)), ("a", "b")
            )
            train, test = dataset.split_rows(fraction, rng)
            assert len(train) == int(round(fraction * n))
            assert len(test) == n - len(train)

    def test_labels_stay_aligned_with_spectra(self):
        """After splitting, each spectrum keeps its own label."""
        n = 40
        x = np.arange(n, dtype=float)[:, None] * np.ones((n, 3))
        y = np.arange(n, dtype=float)[:, None] * np.ones((n, 2))
        dataset = SpectraDataset(x, y, ("a", "b"))
        train, test = dataset.split_rows(0.7, np.random.default_rng(5))
        for rows in (train, test):
            np.testing.assert_array_equal(dataset.x[rows, 0], dataset.y[rows, 0])
