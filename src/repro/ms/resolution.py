"""Resolution changes on the m/z axis.

The MMS prototype allows both the stepsize and the range of the m/z axis to
be reconfigured; "to increase flexibility and to keep the number of
required networks small, it was determined that missing values would be
interpolated when the resolution was changed".  This module performs that
interpolation so one trained network serves several instrument
configurations.
"""

from __future__ import annotations

import numpy as np

from repro.ms.spectrum import MassSpectrum, MzAxis

__all__ = ["resample_spectrum"]


def resample_spectrum(
    spectrum: MassSpectrum,
    target_axis: MzAxis,
    fill_value: float = 0.0,
) -> MassSpectrum:
    """Linearly interpolate a spectrum onto a different m/z axis.

    Points of the target axis outside the source range get ``fill_value``
    (no extrapolation: the detector recorded nothing there).
    """
    source = spectrum.mz
    target = target_axis.values()
    values = np.interp(target, source, spectrum.intensities,
                       left=fill_value, right=fill_value)
    metadata = dict(spectrum.metadata)
    metadata["resampled_from"] = (spectrum.axis.start, spectrum.axis.stop,
                                  spectrum.axis.step)
    return MassSpectrum(target_axis, values, metadata)

