"""Unit tests for domain-shift scenarios and shifted simulators."""

import dataclasses

import numpy as np
import pytest

from repro.adaptation.scenarios import (
    DriftScenario,
    scenario_grid,
    shift_characteristics,
    shifted_ms_simulator,
    shifted_nmr_simulator,
)
from repro.ms.compounds import default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis

AXIS = MzAxis(1.0, 50.0, 0.2)


def _simulator():
    return MassSpectrometerSimulator(
        InstrumentCharacteristics(), AXIS, default_library()
    )


class TestDriftScenario:
    def test_identity_scenario(self):
        scenario = DriftScenario(name="nominal")
        assert scenario.is_identity
        assert not DriftScenario(name="d", sensitivity_drift=0.1).is_identity

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftScenario(name="bad", sensitivity_drift=1.0)
        with pytest.raises(ValueError):
            DriftScenario(name="bad", noise_scale=0.0)
        with pytest.raises(ValueError):
            DriftScenario(name="bad", noise_family="cauchy")
        with pytest.raises(ValueError):
            DriftScenario(name="bad", baseline_wander=-0.1)

    def test_config_round_trip(self):
        scenario = DriftScenario(
            name="d", sensitivity_drift=0.2, noise_scale=2.0, peak_shift=0.05
        )
        assert DriftScenario(**dataclasses.asdict(scenario)) == scenario

    def test_scaled_interpolates_toward_identity(self):
        full = DriftScenario(
            name="full",
            sensitivity_drift=0.4,
            noise_scale=3.0,
            peak_shift=0.1,
            baseline_wander=5.0,
        )
        half = full.scaled(0.5)
        assert half.sensitivity_drift == pytest.approx(0.2)
        assert half.noise_scale == pytest.approx(2.0)  # 1 + 0.5 * (3 - 1)
        assert half.peak_shift == pytest.approx(0.05)
        assert half.baseline_wander == pytest.approx(3.0)
        assert full.scaled(0.0).is_identity


class TestScenarioGrid:
    def test_grid_levels_and_names(self):
        scenarios = scenario_grid(levels=(0.0, 0.5, 1.0))
        assert [s.name for s in scenarios] == [
            "drift-0.00", "drift-0.50", "drift-1.00",
        ]
        assert scenarios[0].is_identity
        assert scenarios[-1].sensitivity_drift > scenarios[1].sensitivity_drift

    def test_grid_is_monotone_in_every_axis(self):
        scenarios = scenario_grid(levels=(0.0, 0.25, 0.5, 0.75, 1.0))
        for attribute in (
            "sensitivity_drift", "noise_scale", "peak_shift", "baseline_wander"
        ):
            values = [getattr(s, attribute) for s in scenarios]
            assert values == sorted(values)


class TestShiftCharacteristics:
    def test_identity_is_noop(self):
        base = InstrumentCharacteristics()
        shifted = shift_characteristics(base, DriftScenario(name="id"))
        assert shifted == base

    def test_sensitivity_drift_reduces_gain(self):
        base = InstrumentCharacteristics()
        shifted = shift_characteristics(
            base, DriftScenario(name="d", sensitivity_drift=0.3)
        )
        assert shifted.gain == pytest.approx(base.gain * 0.7)

    def test_noise_and_shift_axes(self):
        base = InstrumentCharacteristics()
        scenario = DriftScenario(
            name="d", noise_scale=2.0, peak_shift=0.05, baseline_wander=3.0,
            noise_family="heavy",
        )
        shifted = shift_characteristics(base, scenario)
        assert shifted.noise_sigma == pytest.approx(base.noise_sigma * 2.0)
        assert shifted.shot_noise_factor == pytest.approx(
            base.shot_noise_factor * 2.0
        )
        assert shifted.mz_offset == pytest.approx(base.mz_offset + 0.05)
        assert shifted.baseline_amplitude == pytest.approx(
            base.baseline_amplitude * 3.0
        )

    def test_gaussian_family_leaves_shot_noise(self):
        base = InstrumentCharacteristics()
        shifted = shift_characteristics(
            base, DriftScenario(name="d", noise_scale=2.0)
        )
        assert shifted.shot_noise_factor == pytest.approx(
            base.shot_noise_factor
        )


class TestShiftedSimulators:
    def test_identity_returns_equivalent_spectra(self):
        simulator = _simulator()
        shifted = shifted_ms_simulator(simulator, DriftScenario(name="id"))
        x1, _ = simulator.generate_dataset(
            ("N2", "O2"), 3, np.random.default_rng(0)
        )
        x2, _ = shifted.generate_dataset(
            ("N2", "O2"), 3, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(x1, x2)

    def test_drift_changes_spectra(self):
        simulator = _simulator()
        scenario = DriftScenario(
            name="d", sensitivity_drift=0.3, noise_scale=2.0, peak_shift=0.1
        )
        shifted = shifted_ms_simulator(simulator, scenario)
        x1, _ = simulator.generate_dataset(
            ("N2", "O2"), 3, np.random.default_rng(0)
        )
        x2, _ = shifted.generate_dataset(
            ("N2", "O2"), 3, np.random.default_rng(0)
        )
        assert not np.allclose(x1, x2)

    def test_original_simulator_untouched(self):
        simulator = _simulator()
        before = dataclasses.replace(simulator.characteristics)
        shifted_ms_simulator(
            simulator, DriftScenario(name="d", sensitivity_drift=0.2)
        )
        assert simulator.characteristics == before

    def test_nmr_simulator_shifts(self):
        from repro.nmr.hard_model import mndpa_reaction_models
        from repro.nmr.simulator import NMRSpectrumSimulator

        base = NMRSpectrumSimulator(
            mndpa_reaction_models(),
            {
                "p-toluidine": (0.0, 0.5),
                "Li-toluidide": (0.0, 0.5),
                "o-FNB": (0.0, 0.6),
                "MNDPA": (0.0, 0.45),
            },
        )
        scenario = DriftScenario(
            name="d", sensitivity_drift=0.2, noise_scale=2.0, peak_shift=0.03
        )
        shifted = shifted_nmr_simulator(base, scenario)
        assert shifted.noise_sigma == pytest.approx(base.noise_sigma * 2.0)
        assert shifted.shift_sigma == pytest.approx(base.shift_sigma + 0.03)
        assert shifted.broadening_sigma > base.broadening_sigma
