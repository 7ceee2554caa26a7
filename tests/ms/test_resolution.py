"""Unit tests for m/z-axis resampling."""

import numpy as np
import pytest

from repro.ms.compounds import default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.resolution import resample_spectrum
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MassSpectrum, MzAxis


class TestResampleSpectrum:
    def test_identity_resample(self):
        axis = MzAxis(1.0, 10.0, 0.5)
        spectrum = MassSpectrum(axis, np.random.default_rng(0).random(axis.size))
        out = resample_spectrum(spectrum, axis)
        np.testing.assert_allclose(out.intensities, spectrum.intensities)

    def test_upsampling_interpolates_linearly(self):
        coarse = MzAxis(0.0, 4.0, 1.0)
        spectrum = MassSpectrum(coarse, np.array([0.0, 2.0, 4.0, 6.0, 8.0]))
        fine = MzAxis(0.0, 4.0, 0.5)
        out = resample_spectrum(spectrum, fine)
        np.testing.assert_allclose(out.intensities, np.arange(9) * 1.0)

    def test_out_of_range_gets_fill_value(self):
        narrow = MzAxis(5.0, 10.0, 1.0)
        spectrum = MassSpectrum(narrow, np.ones(narrow.size))
        wide = MzAxis(0.0, 20.0, 1.0)
        out = resample_spectrum(spectrum, wide, fill_value=-1.0)
        values = out.intensities
        assert values[0] == -1.0 and values[-1] == -1.0
        assert values[wide.index_of(7.0)] == 1.0

    def test_metadata_records_source_axis(self):
        axis = MzAxis(1.0, 10.0, 0.5)
        spectrum = MassSpectrum(axis, np.zeros(axis.size))
        out = resample_spectrum(spectrum, MzAxis(1.0, 10.0, 0.25))
        assert out.metadata["resampled_from"] == (1.0, 10.0, 0.5)

    def test_peak_preserved_through_downsampling(self):
        """A rendered CO2 spectrum keeps its base peak location at 2x step."""
        lib = default_library()
        sim = MassSpectrometerSimulator(
            InstrumentCharacteristics(ignition_gas_intensity=0.0),
            MzAxis(1.0, 50.0, 0.05),
            lib,
        )
        spectrum = sim.simulate({"CO2": 1.0}, with_noise=False)
        coarse = resample_spectrum(spectrum, MzAxis(1.0, 50.0, 0.2))
        peak_mz = coarse.mz[np.argmax(coarse.intensities)]
        assert peak_mz == pytest.approx(44.0, abs=0.2)

