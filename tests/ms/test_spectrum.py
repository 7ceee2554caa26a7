"""Unit tests for MzAxis and MassSpectrum containers."""

import numpy as np
import pytest

from repro.ms.spectrum import MassSpectrum, MzAxis


class TestMzAxis:
    def test_size_and_values(self):
        axis = MzAxis(1.0, 5.0, 0.5)
        assert axis.size == 9
        np.testing.assert_allclose(axis.values(), np.arange(1.0, 5.01, 0.5))

    def test_default_axis_matches_mmsscale(self):
        axis = MzAxis()
        assert axis.start == 1.0 and axis.stop == 50.0 and axis.step == 0.1
        assert axis.size == 491

    def test_index_of_rounds_to_nearest(self):
        axis = MzAxis(0.0, 10.0, 0.5)
        assert axis.index_of(3.2) == 6
        assert axis.index_of(3.3) == 7

    def test_index_of_clips(self):
        axis = MzAxis(0.0, 10.0, 1.0)
        assert axis.index_of(-5.0) == 0
        assert axis.index_of(99.0) == axis.size - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MzAxis(1.0, 5.0, 0.0)
        with pytest.raises(ValueError):
            MzAxis(5.0, 1.0, 0.1)


class TestMassSpectrum:
    def _spectrum(self):
        axis = MzAxis(0.0, 9.0, 1.0)
        intensities = np.array([0, 1, 4, 1, 0, 0, 2, 8, 2, 0], dtype=float)
        return MassSpectrum(axis, intensities)

    def test_length_checked_against_axis(self):
        with pytest.raises(ValueError, match="does not match"):
            MassSpectrum(MzAxis(0.0, 9.0, 1.0), np.zeros(5))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            MassSpectrum(MzAxis(0.0, 9.0, 1.0), np.zeros((2, 5)))

    def test_normalized_max(self):
        normalized = self._spectrum().normalized("max")
        assert normalized.intensities.max() == 1.0

    def test_normalized_area(self):
        normalized = self._spectrum().normalized("area")
        assert np.sum(normalized.intensities) * 1.0 == pytest.approx(1.0)

    def test_normalize_zero_spectrum_is_noop(self):
        spectrum = MassSpectrum(MzAxis(0.0, 4.0, 1.0), np.zeros(5))
        np.testing.assert_array_equal(spectrum.normalized().intensities, 0.0)

    def test_normalized_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            self._spectrum().normalized("l2")

    def test_normalized_does_not_mutate_original(self):
        spectrum = self._spectrum()
        before = spectrum.intensities.copy()
        spectrum.normalized()
        np.testing.assert_array_equal(spectrum.intensities, before)

    def test_len(self):
        assert len(self._spectrum()) == 10
