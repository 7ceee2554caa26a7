"""Unit tests for Tool 2 (instrument characterization from measurements)."""

import dataclasses

import numpy as np
import pytest

from repro.ms import characterization
from repro.ms.characterization import (
    characterize_instrument,
    expected_task_lines,
)
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import VirtualMassSpectrometer
from repro.ms.mixtures import MassFlowControllerRig, default_mixture_plan
from repro.ms.spectrum import MzAxis

LIB = default_library()
TASK = DEFAULT_TASK_COMPOUNDS


def _reference_measurements(samples_per_mixture=25, seed=0, **instrument_kwargs):
    instrument = VirtualMassSpectrometer(library=LIB, seed=seed, **instrument_kwargs)
    rig = MassFlowControllerRig(instrument, seed=seed)
    plan = default_mixture_plan(TASK, 14, seed=seed)
    return instrument, rig.measure_plan(plan, samples_per_mixture)


class TestExpectedLines:
    def test_lines_cover_all_task_compounds(self):
        lines = expected_task_lines(TASK, LIB)
        names = {name for name, _, _ in lines}
        assert names == set(TASK)

    def test_relative_intensities_normalized(self):
        lines = expected_task_lines(["N2"], LIB)
        assert max(rel for _, _, rel in lines) == 1.0


class TestCharacterization:
    def test_recovers_peak_width(self):
        instrument, measurements = _reference_measurements()
        result = characterize_instrument(measurements, TASK, LIB)
        true = instrument.characteristics
        fitted = result.characteristics
        width_true = true.sigma_at(28.0)
        width_fit = fitted.sigma_at(28.0)
        assert width_fit == pytest.approx(width_true, rel=0.3)

    def test_recovers_attenuation(self):
        instrument, measurements = _reference_measurements()
        result = characterize_instrument(measurements, TASK, LIB)
        true = instrument.characteristics
        fitted = result.characteristics
        # Compare the sensitivity *ratio* across the axis, which is what
        # matters for relative peak heights.
        ratio_true = true.sensitivity_at(44.0) / true.sensitivity_at(2.0)
        ratio_fit = fitted.sensitivity_at(44.0) / fitted.sensitivity_at(2.0)
        assert ratio_fit == pytest.approx(ratio_true, rel=0.15)

    def test_detects_ignition_gas_artifact(self):
        instrument, measurements = _reference_measurements()
        result = characterize_instrument(measurements, TASK, LIB)
        fitted = result.characteristics
        assert fitted.ignition_gas_mz == pytest.approx(
            instrument.characteristics.ignition_gas_mz, abs=0.2
        )
        assert fitted.ignition_gas_intensity == pytest.approx(
            instrument.characteristics.ignition_gas_intensity, rel=0.5
        )

    def test_estimates_mass_offset(self):
        from dataclasses import replace

        instrument = VirtualMassSpectrometer(library=LIB, seed=3)
        instrument.characteristics = replace(
            instrument.characteristics, mz_offset=0.08
        )
        rig = MassFlowControllerRig(instrument, seed=3)
        plan = default_mixture_plan(TASK, 14, seed=3)
        measurements = rig.measure_plan(plan, 25)
        result = characterize_instrument(measurements, TASK, LIB)
        assert result.characteristics.mz_offset == pytest.approx(0.08, abs=0.03)

    def test_more_samples_reduce_width_error(self):
        errors = {}
        for n in (5, 100):
            instrument, measurements = _reference_measurements(
                samples_per_mixture=n, seed=11
            )
            result = characterize_instrument(measurements, TASK, LIB)
            true_width = instrument.characteristics.sigma_at(28.0)
            fit_width = result.characteristics.sigma_at(28.0)
            errors[n] = abs(fit_width - true_width)
        assert errors[100] <= errors[5] * 1.5  # generally much better

    def test_diagnostics_populated(self):
        _, measurements = _reference_measurements(samples_per_mixture=10)
        result = characterize_instrument(measurements, TASK, LIB)
        assert result.n_measurements == len(measurements)
        assert result.n_peaks_used > 10
        assert result.sigma_fit_residual >= 0

    def test_empty_measurements_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            characterize_instrument([], TASK, LIB)

    def test_too_few_usable_peaks_raise(self):
        instrument = VirtualMassSpectrometer(library=LIB)
        # One pure-H2 spectrum: nearly no isolated strong task lines usable.
        measurement = [(instrument.measure({"H2": 1.0}), {"H2": 1.0})]
        with pytest.raises(ValueError):
            characterize_instrument(measurement, ["H2"], LIB)

    def test_contamination_is_not_compensated(self):
        """Humidity in the chamber must bias, not crash, the estimator."""
        _, measurements = _reference_measurements(contamination={"H2O": 0.03})
        result = characterize_instrument(measurements, TASK, LIB)
        assert result.characteristics.gain > 0


class TestQuietMasks:
    """The quiet-region masks are built once per distinct m/z axis, and the
    fit reads exactly what a mask per measurement gave."""

    @staticmethod
    def _two_axis_measurements():
        _, coarse = _reference_measurements(3, seed=1, axis=MzAxis(1.0, 50.0, 0.2))
        _, fine = _reference_measurements(3, seed=2)
        return coarse + fine + coarse[:5]

    @staticmethod
    def _fit_bits(measurements):
        fitted = characterize_instrument(measurements, TASK, LIB).characteristics
        return {k: float(v).hex() for k, v in dataclasses.asdict(fitted).items()}

    def test_one_mask_per_axis_and_margin(self, monkeypatch):
        built = []

        def counting(spectrum, task_lines, margin):
            built.append((spectrum.axis, margin))
            return quiet_mask(spectrum, task_lines, margin)

        quiet_mask = characterization._quiet_mask
        monkeypatch.setattr(characterization, "_quiet_mask", counting)
        measurements = self._two_axis_measurements()
        characterize_instrument(measurements, TASK, LIB)
        assert len(built) == len(set(built)) == 4

    def test_fit_is_bit_equal_to_a_mask_per_measurement(self, monkeypatch):
        measurements = self._two_axis_measurements()
        shared = self._fit_bits(measurements)
        monkeypatch.setattr(
            characterization,
            "_quiet_masks",
            lambda measurements, task_lines, margin: [
                characterization._quiet_mask(spectrum, task_lines, margin)
                for spectrum, _ in measurements
            ],
        )
        assert self._fit_bits(measurements) == shared

